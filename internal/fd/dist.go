package fd

import (
	"fmt"

	"ftrepair/internal/dataset"
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
// tuple costs, target search) computes it, here or through a PairMatcher.
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
// subtraction is cheaper than any lookup. AttrDist, RepairDist, Dist and
// DistWithin run PairMatcher's core on an evaluator kept on the stack and
// add its tally to the counters once per call.
func (cfg *DistConfig) AttrDist(col int, a, b string) float64 {
	if a == b {
		return 0
	}
	pm := PairMatcher{cfg: cfg}
	d := pm.dist(col, a, codeUnresolved, b)
	pm.flush()
	return d
}

// ValueCode returns v's code in the distance plane that answers column
// col's pairs under the config's edit flavor, or -1 when no plane holds v
// (no cache, no plane for the column or flavor, or v not interned). Codes
// from it feed PairMatcher.Score.
func (cfg *DistConfig) ValueCode(col int, v string) int32 {
	if cfg.Cache == nil {
		return -1
	}
	if d := cfg.Cache.dict(col, cfg.Edit); d != nil {
		if c, ok := d.Code(v); ok {
			return c
		}
	}
	return -1
}

// Dist evaluates Eq. 2 for the FD: w_l * Σ_{A∈X} dist(A) + w_r * Σ_{A∈Y}
// dist(A).
func (cfg *DistConfig) Dist(f *FD, t1, t2 dataset.Tuple) float64 {
	pm := PairMatcher{cfg: cfg}
	side := func(cols []int) float64 {
		var sum float64
		for _, c := range cols {
			if t1[c] != t2[c] {
				sum += pm.dist(c, t1[c], codeUnresolved, t2[c])
			}
		}
		return sum
	}
	d := cfg.WL*side(f.LHS) + cfg.WR*side(f.RHS)
	pm.flush()
	return d
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
	pm := PairMatcher{cfg: cfg, f: f, t1: t1}
	d, ok := pm.DistWithin(tau, t2)
	pm.flush()
	return d, ok
}

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
