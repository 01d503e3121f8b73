package fd

import (
	"fmt"
	"unicode/utf8"

	"ftrepair/internal/dataset"
	"ftrepair/internal/strsim"
)

// DistConfig carries everything needed to evaluate the paper's distance
// function: the LHS/RHS weights of Eq. 2 and the per-attribute numeric spans
// used to normalize Euclidean distances into [0,1] (Eq. 1).
type DistConfig struct {
	Schema *dataset.Schema
	WL, WR float64   // weight of LHS and RHS distance; WL+WR = 1
	Spans  []float64 // max-min per attribute; 0 for string attributes
	// Conf holds per-attribute confidence weights in (0, +inf) scaling the
	// *repair cost* of changing a cell in that column (Eq. 3); violation
	// detection (Eq. 2) is unaffected. A confidence above 1 makes a column
	// expensive to touch (user-verified data), below 1 cheap (known-noisy
	// data). Nil means 1 everywhere. This realizes the confidence-guided
	// repairing the paper cites as complementary work.
	Conf []float64
	// Edit selects the string distance flavor. The default Levenshtein
	// matches the paper; OSA (Damerau-Levenshtein with adjacent
	// transpositions at cost 1) models keyboard typos more closely.
	Edit EditFlavor
	// Cache memoizes per-attribute string distances across the whole
	// pipeline (graph construction, repair costs, target search) and counts
	// the lookups. Nil bypasses memoization and counting. NewDistConfig
	// enables it by default; callers constructing a DistConfig literal opt
	// in explicitly. The planes serve only the flavor they were attached
	// for, so mutating Edit on a live config is safe: queries of another
	// flavor compute uncached until AttachPlanes runs again.
	Cache *DistCache
	// Dicts holds the per-column value dictionaries (nil for numeric
	// columns) backing the cache's distance planes: pairs of interned
	// values resolve to integer codes and their distances memoize in flat
	// triangular arrays. NewDistConfig builds them from the relation; with
	// a nil slice the cache holds no planes and every string pair computes
	// uncached. Call AttachPlanes after replacing Cache or mutating Edit so
	// the planes follow.
	Dicts []*dataset.Dict
}

// EditFlavor selects the string edit-distance variant.
type EditFlavor uint8

const (
	// EditLevenshtein is the paper's default: insert/delete/substitute.
	EditLevenshtein EditFlavor = iota
	// EditOSA adds adjacent transpositions at unit cost.
	EditOSA
	// EditJaccard uses the Jaccard distance over 2-gram sets — the other
	// string distance Eq. 1 names. Cheap on long strings, coarser on
	// short ones.
	EditJaccard
)

// StringDist is the normalized string distance under the configured
// flavor.
func (cfg *DistConfig) StringDist(a, b string) float64 {
	switch cfg.Edit {
	case EditOSA:
		return strsim.NormalizedOSA(a, b)
	case EditJaccard:
		return strsim.JaccardDistance(a, b, 2)
	default:
		return strsim.NormalizedEdit(a, b)
	}
}

// StringDistWithin is StringDist with early exit at threshold t.
func (cfg *DistConfig) StringDistWithin(a, b string, t float64) (float64, bool) {
	switch cfg.Edit {
	case EditOSA:
		return strsim.NormalizedOSAWithin(a, b, t)
	case EditJaccard:
		d := strsim.JaccardDistance(a, b, 2)
		if d > t {
			return 0, false
		}
		return d, true
	default:
		return strsim.NormalizedEditWithin(a, b, t)
	}
}

// SetConfidence assigns a repair-cost confidence to one attribute. It
// panics on non-positive confidence values.
func (cfg *DistConfig) SetConfidence(col int, c float64) {
	if c <= 0 {
		panic("fd: confidence must be positive")
	}
	if cfg.Conf == nil {
		cfg.Conf = make([]float64, cfg.Schema.Len())
		for i := range cfg.Conf {
			cfg.Conf[i] = 1
		}
	}
	cfg.Conf[col] = c
}

// RepairDist is the per-attribute repair cost: the Eq-1 distance scaled by
// the attribute's confidence. All Eq-3 cost accounting (edge weights,
// tuple costs, target search) goes through it.
func (cfg *DistConfig) RepairDist(col int, a, b string) float64 {
	d := cfg.AttrDist(col, a, b)
	if cfg.Conf != nil {
		d *= cfg.Conf[col]
	}
	return d
}

// DefaultWL and DefaultWR are the paper's default weight split
// (w_l = w_r = 0.5).
const (
	DefaultWL = 0.5
	DefaultWR = 0.5
)

// NewDistConfig derives a distance configuration from a relation, computing
// numeric spans from the data. Weights must be non-negative and sum to 1.
func NewDistConfig(rel *dataset.Relation, wl, wr float64) (*DistConfig, error) {
	if wl < 0 || wr < 0 || !close1(wl+wr) {
		return nil, fmt.Errorf("fd: weights w_l=%v, w_r=%v must be non-negative and sum to 1", wl, wr)
	}
	cfg := &DistConfig{
		Schema: rel.Schema,
		WL:     wl,
		WR:     wr,
		Spans:  make([]float64, rel.Schema.Len()),
		Cache:  NewDistCache(),
	}
	cfg.Dicts = make([]*dataset.Dict, rel.Schema.Len())
	for c := 0; c < rel.Schema.Len(); c++ {
		if min, max, ok := rel.NumericRange(c); ok {
			cfg.Spans[c] = max - min
		}
		if rel.Schema.Attr(c).Type != dataset.Numeric {
			cfg.Dicts[c] = rel.ColumnDict(c)
		}
	}
	cfg.AttachPlanes()
	return cfg, nil
}

// AttachPlanes (re)attaches the cache's per-column distance planes for the
// config's current edit flavor. Call it after swapping Cache (fresh caches
// start plane-less) or mutating Edit; without dictionaries or a cache it is
// a no-op and every string pair computes uncached.
func (cfg *DistConfig) AttachPlanes() {
	if cfg.Cache == nil || cfg.Dicts == nil {
		return
	}
	cfg.Cache.AttachPlanes(cfg.Dicts, cfg.Edit)
}

// DefaultDistConfig is NewDistConfig with the paper's default weights.
func DefaultDistConfig(rel *dataset.Relation) *DistConfig {
	cfg, err := NewDistConfig(rel, DefaultWL, DefaultWR)
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return cfg
}

func close1(x float64) bool {
	const eps = 1e-9
	return x > 1-eps && x < 1+eps
}

// AttrDist is the per-attribute distance of Eq. 1: normalized edit distance
// for strings, normalized Euclidean distance for numerics. Numeric cells
// that fail to parse fall back to string comparison, so dirty numeric cells
// (a real-world occurrence) degrade gracefully rather than aborting.
//
// String comparisons consult Cache when set: the column's distance plane
// answers when both values are interned, anything else computes uncached
// and counts a miss. Numeric comparisons bypass the cache: parsing plus a
// subtraction is cheaper than any lookup.
func (cfg *DistConfig) AttrDist(col int, a, b string) float64 {
	return cfg.attrDist(col, a, b, nil)
}

func (cfg *DistConfig) attrDist(col int, a, b string, mt *strsim.Matcher) float64 {
	if a == b {
		return 0
	}
	if cfg.Schema.Attr(col).Type == dataset.Numeric {
		av, errA := dataset.ParseFloat(a)
		bv, errB := dataset.ParseFloat(b)
		if errA == nil && errB == nil {
			return strsim.Euclidean(av, bv, cfg.Spans[col])
		}
	}
	if cfg.Cache != nil {
		if p, ca, cb, ok := cfg.Cache.interned(col, cfg.Edit, a, b); ok {
			d, o := cfg.planeDist(p, ca, cb, a, b, mt)
			cfg.Cache.count(o)
			return d
		}
		cfg.Cache.count(uncachedMiss)
	}
	return cfg.stringDist(a, b, mt)
}

// ValueCode returns v's code in the distance plane that answers column
// col's pairs under the config's edit flavor, or -1 when no plane holds v
// (no cache, no plane for the column or flavor, or v not interned). Code
// pairs from it feed RepairScorer.Score.
func (cfg *DistConfig) ValueCode(col int, v string) int32 {
	if cfg.Cache == nil {
		return -1
	}
	if p := cfg.Cache.plane(col, cfg.Edit); p != nil {
		if c, ok := p.dict.Code(v); ok {
			return c
		}
	}
	return -1
}

// planeDist answers an unbounded per-attribute query from the column's
// distance plane and reports the lookup's outcome for the caller to count.
// The normalized result is float64(k)/float64(m) — the exact expression
// NormalizedEdit/NormalizedOSA evaluate — so a plane hit is bitwise equal
// to recomputation.
func (cfg *DistConfig) planeDist(p *distPlane, ca, cb int32, a, b string, mt *strsim.Matcher) (float64, lookup) {
	if cfg.Edit == EditJaccard {
		return cfg.planeJaccard(p, ca, cb, a, b)
	}
	m := p.dict.RuneLen(ca)
	if l := p.dict.RuneLen(cb); l > m {
		m = l
	}
	if v := p.load(ca, cb); v&planeExactBit != 0 {
		return float64(v&^planeExactBit) / float64(m), planeHit
	}
	var k int
	switch {
	case mt != nil:
		k = mt.Distance(b)
	case cfg.Edit == EditOSA:
		k = strsim.OSA(a, b)
	default:
		k = strsim.Levenshtein(a, b)
	}
	return float64(k) / float64(m), stored(p.storeExact(ca, cb, planeExactBit|uint32(k)))
}

// planeJaccard answers a Jaccard query from the column's distance plane,
// which stores the pair's 2-gram intersection and union counts, and reports
// the lookup's outcome; the result is JaccardDistance's own
// 1 - inter/union, so a hit is bitwise equal to recomputation. Pairs whose
// counts overflow a cell compute uncached.
func (cfg *DistConfig) planeJaccard(p *distPlane, ca, cb int32, a, b string) (float64, lookup) {
	var inter, union int
	o := planeHit
	if v := p.load(ca, cb); v&planeExactBit != 0 {
		inter, union = int(v>>jaccardUnionBits&jaccardMaxInter), int(v&jaccardMaxUnion)
	} else {
		inter, union = strsim.JaccardCounts(a, b, 2)
		if inter <= jaccardMaxInter && union <= jaccardMaxUnion {
			o = stored(p.storeExact(ca, cb, planeExactBit|uint32(inter)<<jaccardUnionBits|uint32(union)))
		} else {
			o = uncachedMiss
		}
	}
	// Distinct values each yield at least one gram, so union >= 1.
	return 1 - float64(inter)/float64(union), o
}

// stringDist is StringDist with an optional prebuilt matcher for a
// (Levenshtein flavor only; callers pass nil otherwise).
func (cfg *DistConfig) stringDist(a, b string, mt *strsim.Matcher) float64 {
	if mt == nil {
		return cfg.StringDist(a, b)
	}
	la, lb := mt.Len(), runeLen(b)
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 0
	}
	return float64(mt.Distance(b)) / float64(m)
}

// Dist evaluates Eq. 2 for the FD: w_l * Σ_{A∈X} dist(A) + w_r * Σ_{A∈Y}
// dist(A).
func (cfg *DistConfig) Dist(f *FD, t1, t2 dataset.Tuple) float64 {
	var dl, dr float64
	for _, c := range f.LHS {
		dl += cfg.AttrDist(c, t1[c], t2[c])
	}
	for _, c := range f.RHS {
		dr += cfg.AttrDist(c, t1[c], t2[c])
	}
	return cfg.WL*dl + cfg.WR*dr
}

// TupleCost is Eq. 3: the cost of repairing tuple t into t', the sum of
// per-attribute confidence-scaled distances.
func (cfg *DistConfig) TupleCost(t, t2 dataset.Tuple) float64 {
	var sum float64
	for c := range t {
		sum += cfg.RepairDist(c, t[c], t2[c])
	}
	return sum
}

// DatabaseCost is Eq. 4: the total repair cost between two instances with
// aligned rows.
func (cfg *DistConfig) DatabaseCost(d, d2 *dataset.Relation) float64 {
	var sum float64
	for i := range d.Tuples {
		sum += cfg.TupleCost(d.Tuples[i], d2.Tuples[i])
	}
	return sum
}

// DistWithin evaluates the Eq-2 distance with early exit once the running
// sum exceeds tau; per-attribute string distances are themselves bounded by
// the remaining budget. Returns ok=false as soon as the pair cannot be
// within tau.
func (cfg *DistConfig) DistWithin(f *FD, tau float64, t1, t2 dataset.Tuple) (float64, bool) {
	return cfg.distWithin(f, tau, t1, t2, nil)
}

// distWithin is DistWithin with an optional PairMatcher carrying prebuilt
// bitmask tables for t1's attribute values.
func (cfg *DistConfig) distWithin(f *FD, tau float64, t1, t2 dataset.Tuple, pm *PairMatcher) (float64, bool) {
	var sum float64
	add := func(cols []int, w float64) bool {
		for _, c := range cols {
			a, b := t1[c], t2[c]
			if a == b {
				continue
			}
			var d float64
			if cfg.Schema.Attr(c).Type == dataset.Numeric {
				d = cfg.AttrDist(c, a, b)
			} else if w > 0 {
				budget := (tau - sum) / w
				if budget > 1 {
					budget = 1
				}
				var mt *strsim.Matcher
				if pm != nil {
					mt = pm.matcher(c, a)
				}
				nd, ok := cfg.stringDistWithinCached(c, a, b, budget, mt)
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
	if !add(f.LHS, cfg.WL) {
		return 0, false
	}
	if !add(f.RHS, cfg.WR) {
		return 0, false
	}
	return sum, true
}

// stringDistWithinCached is StringDistWithin routed through the length
// lower bound and the distance cache. The length bound applies to the edit
// flavors only (a q-gram Jaccard distance can undercut it). When both
// values are interned in an attached distance plane the query is answered
// there: exact cells reject or accept and reconstruct the same float the
// full computation yields, bound cells reject any budget whose integer band
// int(t*m) the stored bound covers. Anything else computes uncached. Either
// way, cached and uncached runs agree exactly. mt optionally carries a's
// prebuilt matcher (Levenshtein flavor only) for the compute path.
func (cfg *DistConfig) stringDistWithinCached(col int, a, b string, t float64, mt *strsim.Matcher) (float64, bool) {
	if cfg.Edit != EditJaccard && strsim.MinDistByLength(a, b) > t {
		return 0, false
	}
	if cfg.Cache != nil {
		if p, ca, cb, ok := cfg.Cache.interned(col, cfg.Edit, a, b); ok {
			return cfg.planeDistWithin(p, ca, cb, a, b, t, mt)
		}
		cfg.Cache.count(uncachedMiss)
	}
	return cfg.stringDistWithin(a, b, t, mt)
}

// planeDistWithin answers a bounded query from the column's distance plane
// with NormalizedEditWithin's exact semantics: the absolute band is
// int(t*m), acceptance reconstructs float64(k)/float64(m), and the final
// nd > t guard is preserved. A stored lower bound L rejects any query whose
// band does not exceed it — the distance provably exceeds L >= int(t*m).
// Jaccard queries resolve the exact distance and compare it, as
// StringDistWithin does.
func (cfg *DistConfig) planeDistWithin(p *distPlane, ca, cb int32, a, b string, t float64, mt *strsim.Matcher) (float64, bool) {
	if cfg.Edit == EditJaccard {
		d, o := cfg.planeJaccard(p, ca, cb, a, b)
		cfg.Cache.count(o)
		if d <= t {
			return d, true
		}
		return 0, false
	}
	if t < 0 {
		return 0, false
	}
	m := p.dict.RuneLen(ca)
	if l := p.dict.RuneLen(cb); l > m {
		m = l
	}
	// a != b and both interned, so m >= 1.
	maxDist := int(t * float64(m))
	v := p.load(ca, cb)
	if v&planeExactBit != 0 {
		cfg.Cache.count(planeHit)
		nd := float64(v&^planeExactBit) / float64(m)
		if nd > t {
			return 0, false
		}
		return nd, true
	}
	if v != 0 && maxDist <= int(v)-1 {
		cfg.Cache.count(planeHit)
		return 0, false
	}
	var k int
	var ok bool
	switch {
	case mt != nil:
		k, ok = mt.DistanceBounded(b, maxDist)
	case cfg.Edit == EditOSA:
		k, ok = strsim.OSABounded(a, b, maxDist)
	default:
		k, ok = strsim.LevenshteinBounded(a, b, maxDist)
	}
	if !ok {
		cfg.Cache.count(stored(p.storeBound(ca, cb, maxDist)))
		return 0, false
	}
	cfg.Cache.count(stored(p.storeExact(ca, cb, planeExactBit|uint32(k))))
	nd := float64(k) / float64(m)
	if nd > t {
		return 0, false
	}
	return nd, true
}

// stringDistWithin is StringDistWithin with an optional prebuilt matcher
// for a (Levenshtein flavor only; callers pass nil otherwise). The matcher
// path mirrors NormalizedEditWithin term for term.
func (cfg *DistConfig) stringDistWithin(a, b string, t float64, mt *strsim.Matcher) (float64, bool) {
	if mt == nil {
		return cfg.StringDistWithin(a, b, t)
	}
	if t < 0 {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	m := mt.Len()
	if lb := runeLen(b); lb > m {
		m = lb
	}
	if m == 0 {
		return 0, true
	}
	d, ok := mt.DistanceBounded(b, int(t*float64(m)))
	if !ok {
		return 0, false
	}
	nd := float64(d) / float64(m)
	if nd > t {
		return 0, false
	}
	return nd, true
}

// runeLen is utf8.RuneCountInString.
func runeLen(s string) int { return utf8.RuneCountInString(s) }

// FTViolates reports the fault-tolerant violation of the FD at threshold
// tau: the projections differ and their distance is at most tau.
func (cfg *DistConfig) FTViolates(f *FD, tau float64, t1, t2 dataset.Tuple) bool {
	if f.ProjEqual(t1, t2) {
		return false
	}
	return cfg.Dist(f, t1, t2) <= tau
}

// IsConsistent reports classic consistency of rel w.r.t. the FD (no two
// tuples agree on X and differ on Y). It groups by the LHS projection.
func IsConsistent(rel *dataset.Relation, f *FD) bool {
	byLHS := make(map[string]string) // lhs key -> rhs key of first occurrence
	for _, t := range rel.Tuples {
		lk := t.Key(f.LHS)
		rk := t.Key(f.RHS)
		if prev, ok := byLHS[lk]; ok {
			if prev != rk {
				return false
			}
			continue
		}
		byLHS[lk] = rk
	}
	return true
}

// IsFTConsistent reports FT-consistency of rel w.r.t. the FD at threshold
// tau: no pair of tuples is an FT-violation. Tuples sharing a projection are
// grouped, so the check is quadratic in the number of distinct projections,
// not tuples.
func IsFTConsistent(rel *dataset.Relation, f *FD, cfg *DistConfig, tau float64) bool {
	patterns := DistinctProjections(rel, f)
	for i := 0; i < len(patterns); i++ {
		for j := i + 1; j < len(patterns); j++ {
			if cfg.Dist(f, patterns[i], patterns[j]) <= tau {
				return false
			}
		}
	}
	return true
}

// DistinctProjections returns one representative tuple per distinct value of
// the FD's projection, in first-occurrence order.
func DistinctProjections(rel *dataset.Relation, f *FD) []dataset.Tuple {
	seen := make(map[string]bool)
	var out []dataset.Tuple
	for _, t := range rel.Tuples {
		k := t.Key(f.attrs)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, t)
	}
	return out
}
