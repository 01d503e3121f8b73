package fd

import "ftrepair/internal/dataset"

// AttachPlanesEager is AttachPlanes with every plane created at once: the
// eager reference the lazy creation is tested against.
func (c *DistCache) AttachPlanesEager(dicts []*dataset.Dict, flavor EditFlavor) {
	c.AttachPlanes(dicts, flavor)
	for col, d := range c.dicts {
		if d != nil {
			c.plane(col)
		}
	}
}

// PlaneAllocated reports whether column col's plane has been created.
func (c *DistCache) PlaneAllocated(col int) bool {
	return col < len(c.planes) && c.planes[col].Load() != nil
}
