package fd

import (
	"sync/atomic"

	"ftrepair/internal/dataset"
)

// DistCache memoizes per-attribute normalized string distances. The same
// value pairs recur thousands of times across a repair run — pattern pairs
// share attribute values after tuple grouping, and PatternDist, Dist,
// DistWithin, target-tree plan costs, and greedy rescoring all re-derive
// the same distances — so caching the per-attribute result removes the
// pipeline's dominant repeated work.
//
// The memo is a set of per-column distance planes (AttachPlanes): flat
// triangular arrays over interned value-pair codes, one atomic load per
// lookup, serving all three edit flavors. See plane.go for the cell
// encodings and the bit-identity argument. A query no plane can answer —
// an un-interned value, a column whose domain exceeds the plane caps, a
// flavor other than the attached one, a config without dictionaries — is
// computed uncached.
//
// The counters are schedule-independent: a plane query counts a miss only
// when its store fills an empty cell, every other plane query (including a
// recomputation that upgrades a lower bound, or one that lost the fill race
// to a concurrent worker) counts a hit, and an uncached computation counts
// a miss. Plane misses therefore equal the cells filled, and hits + misses
// equal the string lookups made, at any worker count.
//
// A DistCache must not be copied after first use.
type DistCache struct {
	// planes[col] answers value pairs interned in col's dictionary; nil
	// entries (and a nil slice) compute uncached. Written once by
	// AttachPlanes before concurrent use.
	planes      []*distPlane
	planeFlavor EditFlavor
	planeHits   atomic.Uint64
	planeMisses atomic.Uint64
	uncached    atomic.Uint64
}

// NewDistCache returns an empty cache ready for concurrent use.
func NewDistCache() *DistCache {
	return &DistCache{}
}

// AttachPlanes equips the cache with per-column distance planes over the
// given dictionaries for one edit flavor. Columns with a nil dictionary,
// fewer than two distinct values, or a domain exceeding the plane size caps
// are skipped (their pairs compute uncached). Attach before sharing the
// cache across goroutines; attaching replaces any previous planes.
func (c *DistCache) AttachPlanes(dicts []*dataset.Dict, flavor EditFlavor) {
	c.planeFlavor = flavor
	c.planes = make([]*distPlane, len(dicts))
	budget := planeTotalCells
	for col, d := range dicts {
		if d == nil || d.Len() < 2 {
			continue
		}
		cells := planeCells(d.Len())
		if cells > planeMaxCells || cells > budget {
			continue
		}
		c.planes[col] = newDistPlane(d)
		budget -= cells
	}
}

// interned resolves a string pair to col's distance plane and the values'
// codes; ok is false unless a plane is attached for the flavor and its
// dictionary holds both values.
func (c *DistCache) interned(col int, flavor EditFlavor, a, b string) (p *distPlane, ca, cb int32, ok bool) {
	if flavor != c.planeFlavor || col >= len(c.planes) || c.planes[col] == nil {
		return nil, 0, 0, false
	}
	p = c.planes[col]
	if ca, ok = p.dict.Code(a); !ok {
		return nil, 0, 0, false
	}
	cb, ok = p.dict.Code(b)
	return p, ca, cb, ok
}

// countStore records a plane query that computed its pair: a miss when its
// store filled the empty cell, a hit otherwise.
func (c *DistCache) countStore(filled bool) {
	if filled {
		c.planeMisses.Add(1)
	} else {
		c.planeHits.Add(1)
	}
}

// Counters returns the cumulative hit and miss counts: plane traffic plus
// one miss per uncached computation.
func (c *DistCache) Counters() (hits, misses uint64) {
	return c.planeHits.Load(), c.planeMisses.Load() + c.uncached.Load()
}

// PlaneCounters returns the cumulative plane-only hit and miss counts: how
// many lookups the per-column distance planes answered versus how many
// filled an empty cell. The same counts are folded into Counters' totals;
// this accessor splits them out so per-run deltas can attribute cache
// traffic to the planes rather than to uncached computation.
func (c *DistCache) PlaneCounters() (hits, misses uint64) {
	return c.planeHits.Load(), c.planeMisses.Load()
}

// Len returns the number of memoized entries currently held: the occupied
// plane cells.
func (c *DistCache) Len() int {
	n := 0
	for _, p := range c.planes {
		if p != nil {
			n += p.occupied()
		}
	}
	return n
}
