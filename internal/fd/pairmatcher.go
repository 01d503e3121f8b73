package fd

import (
	"sync"

	"ftrepair/internal/dataset"
	"ftrepair/internal/strsim"
)

// PairMatcher evaluates the Eq-2 distance of one fixed tuple against a
// stream of candidate tuples. The hot detection loops — all-pairs ranging,
// per-bucket indexed verification, incremental candidate probing — hold one
// tuple fixed across hundreds of comparisons, so the fixed side's
// bit-parallel equivalence tables (strsim.Matcher) are built once per
// column and reused for every candidate that misses the distance plane and
// cache. Results are identical to DistConfig.DistWithin; only the kernel
// preprocessing is amortized.
//
// Matchers apply to the Levenshtein flavor only (the bit-parallel kernels
// implement unrestricted edit distance); other flavors run exactly as
// before. A PairMatcher is not safe for concurrent use: each worker
// acquires its own and releases it when the stream ends.
type PairMatcher struct {
	cfg *DistConfig
	f   *FD
	t1  dataset.Tuple
	use bool              // Levenshtein flavor: matchers apply
	mts []*strsim.Matcher // per column, bound lazily on first miss
}

var pairMatcherPool = sync.Pool{New: func() any { return new(PairMatcher) }}

// AcquirePairMatcher returns a pooled PairMatcher holding t1 fixed for the
// FD's attributes. Release it when the candidate stream is exhausted.
func (cfg *DistConfig) AcquirePairMatcher(f *FD, t1 dataset.Tuple) *PairMatcher {
	pm := pairMatcherPool.Get().(*PairMatcher)
	pm.cfg = cfg
	pm.f = f
	pm.t1 = t1
	pm.use = cfg.Edit == EditLevenshtein
	if n := cfg.Schema.Len(); cap(pm.mts) < n {
		pm.mts = make([]*strsim.Matcher, n)
	} else {
		pm.mts = pm.mts[:n]
	}
	return pm
}

// Release returns the PairMatcher and its column matchers to their pools.
func (pm *PairMatcher) Release() {
	for i, mt := range pm.mts {
		if mt != nil {
			mt.Release()
			pm.mts[i] = nil
		}
	}
	pm.cfg = nil
	pm.f = nil
	pm.t1 = nil
	pairMatcherPool.Put(pm)
}

// matcher returns the column's matcher bound to a (== t1[col]), building it
// on first use; nil when matchers do not apply to the configured flavor.
func (pm *PairMatcher) matcher(col int, a string) *strsim.Matcher {
	if !pm.use {
		return nil
	}
	mt := pm.mts[col]
	if mt == nil {
		mt = strsim.AcquireMatcher(a)
		pm.mts[col] = mt
	}
	return mt
}

// DistWithin is DistConfig.DistWithin(f, tau, t1, t2) with the fixed side's
// prebuilt tables.
func (pm *PairMatcher) DistWithin(tau float64, t2 dataset.Tuple) (float64, bool) {
	return pm.cfg.distWithin(pm.f, tau, pm.t1, t2, pm)
}

// Dist is DistConfig.Dist(f, t1, t2) with the fixed side's prebuilt tables.
func (pm *PairMatcher) Dist(t2 dataset.Tuple) float64 {
	var dl, dr float64
	for _, c := range pm.f.LHS {
		dl += pm.attrDist(c, t2)
	}
	for _, c := range pm.f.RHS {
		dr += pm.attrDist(c, t2)
	}
	return pm.cfg.WL*dl + pm.cfg.WR*dr
}

// RepairDist is DistConfig.RepairDist(col, t1[col], t2[col]) with the fixed
// side's prebuilt tables.
func (pm *PairMatcher) RepairDist(col int, t2 dataset.Tuple) float64 {
	d := pm.attrDist(col, t2)
	if pm.cfg.Conf != nil {
		d *= pm.cfg.Conf[col]
	}
	return d
}

func (pm *PairMatcher) attrDist(col int, t2 dataset.Tuple) float64 {
	a, b := pm.t1[col], t2[col]
	if a == b {
		return 0
	}
	var mt *strsim.Matcher
	if pm.cfg.Schema.Attr(col).Type != dataset.Numeric {
		mt = pm.matcher(col, a)
	}
	return pm.cfg.attrDist(col, a, b, mt)
}

// RepairScorer evaluates the per-attribute repair costs of one fixed tuple
// against a stream of candidate values: a target search scores every tree
// value it reaches against the tuple being repaired. Candidates arrive with
// their distance-plane codes (DistConfig.ValueCode, resolved once per tree
// by the caller); the scorer resolves its own tuple's codes once per
// column, so a plane hit costs no string-map probe, and it reuses the
// tuple's bit-parallel tables when a pair must be computed. Results are
// bitwise equal to DistConfig.RepairDist with the fixed value on the left.
// Score(col, ...) reads only t[col], so the repair planner scores a column
// value once for every tuple that carries it; the sharing relies on that.
//
// The scorer tallies its lookups in plain fields and adds them to the
// cache's counters once, in Release: a search's per-lookup work then
// writes no memory another goroutine reads, and the totals are the same.
//
// Not safe for concurrent use; acquire one per search and release it after.
type RepairScorer struct {
	cfg *DistConfig
	t   dataset.Tuple
	use bool
	mts []*strsim.Matcher
	// codes[col] is t[col]'s plane code (-1: none), or codeUnresolved.
	codes []int32
	tally tally
}

// codeUnresolved marks a column whose code the scorer has not looked up.
const codeUnresolved = -2

var repairScorerPool = sync.Pool{New: func() any { return new(RepairScorer) }}

// AcquireRepairScorer returns a pooled scorer holding t fixed on the left.
func (cfg *DistConfig) AcquireRepairScorer(t dataset.Tuple) *RepairScorer {
	rs := repairScorerPool.Get().(*RepairScorer)
	rs.cfg = cfg
	rs.t = t
	rs.use = cfg.Edit == EditLevenshtein
	n := cfg.Schema.Len()
	if cap(rs.mts) < n {
		rs.mts = make([]*strsim.Matcher, n)
		rs.codes = make([]int32, n)
	} else {
		rs.mts, rs.codes = rs.mts[:n], rs.codes[:n]
	}
	for i := range rs.codes {
		rs.codes[i] = codeUnresolved
	}
	return rs
}

// Release adds the scorer's lookup tally to the cache's counters and
// returns the scorer and its column matchers to their pools.
func (rs *RepairScorer) Release() {
	if rs.cfg.Cache != nil {
		rs.cfg.Cache.add(&rs.tally)
	}
	rs.tally = tally{}
	for i, mt := range rs.mts {
		if mt != nil {
			mt.Release()
			rs.mts[i] = nil
		}
	}
	rs.cfg = nil
	rs.t = nil
	repairScorerPool.Put(rs)
}

// Score is DistConfig.RepairDist(col, t[col], b) for the fixed tuple t and
// a candidate value b whose code is DistConfig.ValueCode(col, b).
func (rs *RepairScorer) Score(col int, code int32, b string) float64 {
	var d float64
	if a := rs.t[col]; a != b {
		d = rs.attrDist(col, code, a, b)
	}
	if rs.cfg.Conf != nil {
		d *= rs.cfg.Conf[col]
	}
	return d
}

// attrDist is DistConfig.attrDist for a != b with the pair's codes in hand:
// the same numeric parse path, the same plane arithmetic, and the same
// uncached fallback, counted into the tally.
func (rs *RepairScorer) attrDist(col int, cb int32, a, b string) float64 {
	cfg := rs.cfg
	numeric := cfg.Schema.Attr(col).Type == dataset.Numeric
	if numeric {
		av, errA := dataset.ParseFloat(a)
		bv, errB := dataset.ParseFloat(b)
		if errA == nil && errB == nil {
			return strsim.Euclidean(av, bv, cfg.Spans[col])
		}
	}
	var mt *strsim.Matcher
	if rs.use && !numeric {
		if mt = rs.mts[col]; mt == nil {
			mt = strsim.AcquireMatcher(a)
			rs.mts[col] = mt
		}
	}
	if cfg.Cache == nil {
		return cfg.stringDist(a, b, mt)
	}
	ca := rs.codes[col]
	if ca == codeUnresolved {
		ca = cfg.ValueCode(col, a)
		rs.codes[col] = ca
	}
	if ca < 0 || cb < 0 {
		rs.tally[uncachedMiss]++
		return cfg.stringDist(a, b, mt)
	}
	d, o := cfg.planeDist(cfg.Cache.planes[col], ca, cb, a, b, mt)
	rs.tally[o]++
	return d
}
