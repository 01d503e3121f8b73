package fd

import (
	"sync"
	"unicode/utf8"

	"ftrepair/internal/dataset"
	"ftrepair/internal/strsim"
)

// PairMatcher is the one evaluator of the paper's distances: it holds one
// tuple fixed and evaluates the per-attribute distance of Eq. 1 between
// that tuple's values and a stream of candidate values, summed into the
// bounded Eq. 2 (DistWithin) or scaled into Eq-3 repair costs (RepairDist,
// Score). Graph builds, violator counts and the streaming engine's
// candidate scans hold a tuple fixed across hundreds of candidate tuples;
// the repair planner scores one tuple's values against every value of a
// target tree.
//
// A pooled PairMatcher (AcquirePairMatcher) resolves each fixed value's
// distance-plane code once per column and, under the Levenshtein flavor,
// builds the value's bit-parallel tables (strsim.Matcher) at the column's
// first pair that must be computed; a candidate arriving with its code
// (Score) costs no dictionary probe either. DistConfig's direct methods
// run the same core on a PairMatcher kept on their stack, which memoizes
// nothing and builds no tables. Results are bitwise equal to an uncached
// computation either way.
//
// The evaluator tallies its lookups in plain fields and adds them to the
// cache's counters once: in Release, or at the end of a direct method. Its
// per-lookup work then writes no memory another goroutine reads, and the
// totals are the same sums (see DistCache).
//
// A PairMatcher is not safe for concurrent use: each worker acquires its
// own and releases it when the stream ends.
type PairMatcher struct {
	cfg *DistConfig
	f   *FD
	t1  dataset.Tuple
	// mts[col] is t1[col]'s matcher once built; codes[col] is t1[col]'s
	// plane code (-1: none) or codeUnresolved. Both are nil in the direct
	// methods' evaluators.
	mts   []*strsim.Matcher
	codes []int32
	tally tally
}

// codeUnresolved marks a value whose plane code has not been looked up.
const codeUnresolved = -2

var pairMatcherPool = sync.Pool{New: func() any { return new(PairMatcher) }}

// AcquirePairMatcher returns a pooled PairMatcher holding t1 fixed on the
// left. DistWithin reads the FD's attributes; f may be nil when only
// RepairDist and Score are called. Release it when the candidate stream is
// exhausted.
func (cfg *DistConfig) AcquirePairMatcher(f *FD, t1 dataset.Tuple) *PairMatcher {
	pm := pairMatcherPool.Get().(*PairMatcher)
	pm.cfg, pm.f, pm.t1 = cfg, f, t1
	if n := cfg.Schema.Len(); cap(pm.mts) < n {
		pm.mts, pm.codes = make([]*strsim.Matcher, n), make([]int32, n)
	} else {
		pm.mts, pm.codes = pm.mts[:n], pm.codes[:n]
	}
	for i := range pm.codes {
		pm.codes[i] = codeUnresolved
	}
	return pm
}

// Release adds the lookup tally to the cache's counters and returns the
// PairMatcher and its column matchers to their pools.
func (pm *PairMatcher) Release() {
	pm.flush()
	for i, mt := range pm.mts {
		if mt != nil {
			mt.Release()
			pm.mts[i] = nil
		}
	}
	pm.cfg, pm.f, pm.t1 = nil, nil, nil
	pairMatcherPool.Put(pm)
}

// flush adds the tally to the cache's counters and clears it.
func (pm *PairMatcher) flush() {
	if pm.cfg.Cache != nil {
		pm.cfg.Cache.add(&pm.tally)
	}
	pm.tally = tally{}
}

// DistWithin is DistConfig.DistWithin(f, tau, t1, t2) for the fixed t1.
func (pm *PairMatcher) DistWithin(tau float64, t2 dataset.Tuple) (float64, bool) {
	cfg := pm.cfg
	var sum float64
	add := func(cols []int, w float64) bool {
		for _, c := range cols {
			a, b := pm.t1[c], t2[c]
			if a == b {
				continue
			}
			var d float64
			if cfg.Schema.Attr(c).Type == dataset.Numeric {
				d = pm.dist(c, a, codeUnresolved, b)
			} else if w > 0 {
				nd, ok := pm.distWithin(c, a, codeUnresolved, b, min((tau-sum)/w, 1))
				if !ok {
					return false
				}
				d = nd
			}
			sum += w * d
			if sum > tau {
				return false
			}
		}
		return true
	}
	if !add(pm.f.LHS, cfg.WL) || !add(pm.f.RHS, cfg.WR) {
		return 0, false
	}
	return sum, true
}

// RepairDist is DistConfig.RepairDist(col, t1[col], t2[col]) for the fixed
// t1.
func (pm *PairMatcher) RepairDist(col int, t2 dataset.Tuple) float64 {
	return pm.Score(col, codeUnresolved, t2[col])
}

// Score is DistConfig.RepairDist(col, t1[col], b) for the fixed t1 and a
// candidate value b whose plane code is DistConfig.ValueCode(col, b). It
// reads only t1[col], so the repair planner shares one column value's
// scores among every tuple that carries it.
func (pm *PairMatcher) Score(col int, code int32, b string) float64 {
	var d float64
	if a := pm.t1[col]; a != b {
		d = pm.dist(col, a, code, b)
	}
	if pm.cfg.Conf != nil {
		d *= pm.cfg.Conf[col]
	}
	return d
}

// dist is the unbounded per-attribute core: Eq. 1 between a, the fixed
// value of column col, and a candidate b != a whose plane code is cb
// (codeUnresolved: look it up). Numeric pairs that parse take the
// normalized Euclidean distance, uncounted. Every other pair is one
// string lookup: the column's distance plane answers or memoizes it when
// both values are interned, anything else computes uncached. The result is
// the expression strsim's normalized distance evaluates — float64(k)/m
// for the edit flavors, 1 - inter/union for Jaccard — so a plane hit is
// bitwise equal to recomputation.
func (pm *PairMatcher) dist(col int, a string, cb int32, b string) float64 {
	cfg := pm.cfg
	if cfg.Schema.Attr(col).Type == dataset.Numeric {
		av, errA := dataset.ParseFloat(a)
		bv, errB := dataset.ParseFloat(b)
		if errA == nil && errB == nil {
			return strsim.Euclidean(av, bv, cfg.Spans[col])
		}
	}
	p, ca, cb := pm.plane(col, a, cb, b)
	var v uint32 // the pair's cell; empty without a plane
	if p != nil {
		v = p.load(ca, cb)
	}
	o := uncachedMiss
	if cfg.Edit == EditJaccard {
		var inter, union int
		if v&planeExactBit != 0 {
			inter, union, o = int(v>>jaccardUnionBits&jaccardMaxInter), int(v&jaccardMaxUnion), planeHit
		} else {
			inter, union = strsim.JaccardCounts(a, b, 2)
			// Counts that overflow a cell compute uncached.
			if p != nil && inter <= jaccardMaxInter && union <= jaccardMaxUnion {
				o = stored(p.storeExact(ca, cb, planeExactBit|uint32(inter)<<jaccardUnionBits|uint32(union)))
			}
		}
		pm.tally[o]++
		// Distinct values each yield at least one gram, so union >= 1.
		return 1 - float64(inter)/float64(union)
	}
	m := maxLen(p, ca, cb, a, b)
	if v&planeExactBit != 0 {
		pm.tally[planeHit]++
		return float64(v&^planeExactBit) / float64(m)
	}
	var k int
	switch mt := pm.matcher(col, a); {
	case mt != nil:
		k = mt.Distance(b)
	case cfg.Edit == EditOSA:
		k = strsim.OSA(a, b)
	default:
		k = strsim.Levenshtein(a, b)
	}
	if p != nil {
		o = stored(p.storeExact(ca, cb, planeExactBit|uint32(k)))
	}
	pm.tally[o]++
	return float64(k) / float64(m)
}

// distWithin is the bounded per-attribute core for a string column: dist's
// answer when it is at most t, ok=false otherwise, with
// NormalizedEditWithin's semantics — the absolute band is int(t*m),
// acceptance reconstructs float64(k)/m, and the final nd > t guard is
// kept. The edit flavors reject on the length lower bound before any
// lookup (a q-gram Jaccard distance can undercut it); a plane cell holding
// a lower bound L rejects any band that does not exceed it, and a rejected
// computation stores its band as the cell's bound. Jaccard resolves the
// exact distance and compares it.
func (pm *PairMatcher) distWithin(col int, a string, cb int32, b string, t float64) (float64, bool) {
	cfg := pm.cfg
	var nd float64
	if cfg.Edit == EditJaccard {
		nd = pm.dist(col, a, cb, b)
	} else {
		// The bound is non-negative, so this also rejects every t < 0.
		if strsim.MinDistByLength(a, b) > t {
			return 0, false
		}
		p, ca, cb := pm.plane(col, a, cb, b)
		m := maxLen(p, ca, cb, a, b)
		maxDist := int(t * float64(m))
		var v uint32
		if p != nil {
			v = p.load(ca, cb)
		}
		switch {
		case v&planeExactBit != 0:
			pm.tally[planeHit]++
			nd = float64(v&^planeExactBit) / float64(m)
		case v != 0 && maxDist <= int(v)-1:
			pm.tally[planeHit]++
			return 0, false
		default:
			var k int
			var ok bool
			switch mt := pm.matcher(col, a); {
			case mt != nil:
				k, ok = mt.DistanceBounded(b, maxDist)
			case cfg.Edit == EditOSA:
				k, ok = strsim.OSABounded(a, b, maxDist)
			default:
				k, ok = strsim.LevenshteinBounded(a, b, maxDist)
			}
			o := uncachedMiss
			if !ok {
				if p != nil {
					o = stored(p.storeBound(ca, cb, maxDist))
				}
				pm.tally[o]++
				return 0, false
			}
			if p != nil {
				o = stored(p.storeExact(ca, cb, planeExactBit|uint32(k)))
			}
			pm.tally[o]++
			nd = float64(k) / float64(m)
		}
	}
	if nd > t {
		return 0, false
	}
	return nd, true
}

// plane resolves the pair's distance plane and codes for a lookup; p is
// nil when no plane holds both values (no cache, no plane for the column
// under the flavor, or a value not interned), and the lookup computes
// uncached.
func (pm *PairMatcher) plane(col int, a string, cb int32, b string) (*distPlane, int32, int32) {
	c := pm.cfg.Cache
	if c == nil {
		return nil, 0, 0
	}
	var ca int32
	if pm.codes == nil {
		ca = pm.cfg.ValueCode(col, a)
	} else if ca = pm.codes[col]; ca == codeUnresolved {
		ca = pm.cfg.ValueCode(col, a)
		pm.codes[col] = ca
	}
	if ca < 0 {
		return nil, 0, 0
	}
	if cb == codeUnresolved {
		cb = pm.cfg.ValueCode(col, b)
	}
	if cb < 0 {
		return nil, 0, 0
	}
	p := c.planes[col].Load()
	if p == nil {
		p = c.plane(col)
	}
	return p, ca, cb
}

// matcher returns a's matcher for column col, built at its first use; nil
// when the evaluator keeps none or the flavor is not Levenshtein (the
// bit-parallel kernels implement unrestricted edit distance only).
func (pm *PairMatcher) matcher(col int, a string) *strsim.Matcher {
	if pm.mts == nil || pm.cfg.Edit != EditLevenshtein {
		return nil
	}
	mt := pm.mts[col]
	if mt == nil {
		mt = strsim.AcquireMatcher(a)
		pm.mts[col] = mt
	}
	return mt
}

// maxLen is the longer rune length of a and b, read from the plane's
// dictionary when p holds the pair. a != b, so it is at least 1.
func maxLen(p *distPlane, ca, cb int32, a, b string) int {
	if p != nil {
		return max(p.dict.RuneLen(ca), p.dict.RuneLen(cb))
	}
	return max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
}
