package fd

import (
	"sync"
	"sync/atomic"

	"ftrepair/internal/dataset"
	"ftrepair/internal/obs"
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
// equal the string lookups made, at any worker count. Every lookup goes
// through a PairMatcher, which tallies the outcomes in plain fields and
// adds them once (in Release, or at the end of a DistConfig method), so no
// lookup writes a shared counter; the totals are the same sums. The same
// add feeds the obs registry's distance counters.
//
// A DistCache must not be copied after first use.
type DistCache struct {
	// dicts[col] is the dictionary of a column AttachPlanes gave a plane,
	// nil for the others (whose pairs compute uncached); planes[col] is
	// that plane once the column's first lookup created it. Both slices
	// are written by AttachPlanes before concurrent use; mu serializes
	// plane creation, so concurrent first lookups create one plane.
	dicts       []*dataset.Dict
	planes      []atomic.Pointer[distPlane]
	mu          sync.Mutex
	planeFlavor EditFlavor
	// counts holds the cumulative lookups by outcome.
	counts [numLookups]atomic.Uint64
}

// lookup is the outcome of one string-distance lookup, as the counters
// see it.
type lookup uint8

const (
	// planeHit: a plane answered, or the lookup computed its pair without
	// filling an empty cell (a bound upgrade, a lost fill race).
	planeHit lookup = iota
	// planeMiss: the lookup computed its pair and filled an empty cell.
	planeMiss
	// uncachedMiss: no plane could hold the pair; it computed uncached.
	uncachedMiss
	numLookups
)

// tally counts lookups in plain fields, for one goroutine; DistCache.add
// folds it into the shared counters in one step.
type tally [numLookups]uint64

// NewDistCache returns an empty cache ready for concurrent use.
func NewDistCache() *DistCache {
	return &DistCache{}
}

// AttachPlanes equips the cache with per-column distance planes over the
// given dictionaries for one edit flavor. Columns with a nil dictionary,
// fewer than two distinct values, or a domain exceeding the plane size caps
// are skipped (their pairs compute uncached); the budget is charged in
// column order whether or not a column is ever read. A plane and its cells
// are allocated at the column's first lookup, so a column no query reads
// costs nothing. Attach before sharing the cache across goroutines;
// attaching replaces any previous planes.
func (c *DistCache) AttachPlanes(dicts []*dataset.Dict, flavor EditFlavor) {
	c.planeFlavor = flavor
	c.dicts = make([]*dataset.Dict, len(dicts))
	c.planes = make([]atomic.Pointer[distPlane], len(dicts))
	budget := planeTotalCells
	for col, d := range dicts {
		if d == nil || d.Len() < 2 {
			continue
		}
		cells := planeCells(d.Len())
		if cells > planeMaxCells || cells > budget {
			continue
		}
		c.dicts[col] = d
		budget -= cells
	}
}

// dict returns the dictionary of col's plane under flavor, or nil when no
// plane answers col's pairs.
func (c *DistCache) dict(col int, flavor EditFlavor) *dataset.Dict {
	if flavor != c.planeFlavor || col >= len(c.dicts) {
		return nil
	}
	return c.dicts[col]
}

// plane returns col's plane, creating it on the first call; col must have
// a dictionary. Kept out of line: the lookup path loads c.planes[col]
// itself and calls plane only when it is nil.
func (c *DistCache) plane(col int) *distPlane {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.planes[col].Load(); p != nil {
		return p
	}
	p := newDistPlane(c.dicts[col])
	c.planes[col].Store(p)
	return p
}

// stored is the outcome of a plane query that computed its pair: a miss
// when its store filled the empty cell, a hit otherwise.
func stored(filled bool) lookup {
	if filled {
		return planeMiss
	}
	return planeHit
}

// add folds an evaluator's tally into the counters and into the obs
// registry's distance counters: the one write path of both, so the
// registry sees each lookup once whichever run, graph append or shard
// made it.
func (c *DistCache) add(t *tally) {
	for o, n := range t {
		if n != 0 {
			c.counts[o].Add(n)
		}
	}
	if n := t[planeHit]; n != 0 {
		obs.Pipeline.DistCacheHits.Add(n)
		obs.Pipeline.DistPlaneHits.Add(n)
	}
	if n := t[planeMiss]; n != 0 {
		obs.Pipeline.DistCacheMisses.Add(n)
		obs.Pipeline.DistPlaneMisses.Add(n)
	}
	if n := t[uncachedMiss]; n != 0 {
		obs.Pipeline.DistCacheMisses.Add(n)
	}
}

// Counters returns the cumulative hit and miss counts: plane traffic plus
// one miss per uncached computation.
func (c *DistCache) Counters() (hits, misses uint64) {
	return c.counts[planeHit].Load(), c.counts[planeMiss].Load() + c.counts[uncachedMiss].Load()
}

// PlaneCounters returns the cumulative plane-only hit and miss counts: how
// many lookups the per-column distance planes answered versus how many
// filled an empty cell. The same counts are folded into Counters' totals;
// this accessor splits them out so per-run deltas can attribute cache
// traffic to the planes rather than to uncached computation.
func (c *DistCache) PlaneCounters() (hits, misses uint64) {
	return c.counts[planeHit].Load(), c.counts[planeMiss].Load()
}

// Len returns the number of memoized entries currently held: the occupied
// plane cells.
func (c *DistCache) Len() int {
	n := 0
	for i := range c.planes {
		if p := c.planes[i].Load(); p != nil {
			n += p.occupied()
		}
	}
	return n
}
