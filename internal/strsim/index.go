package strsim

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// Index is a q-gram inverted index over a set of strings supporting
// edit-distance range queries. It applies the classic length filter
// (||a|-|b|| <= k) and count filter (strings within edit distance k share at
// least max(|a|,|b|) - q + 1 - k*q q-grams) before verifying candidates with
// a banded edit-distance computation.
//
// The violation-graph builder uses it to self-join a probe column's
// distinct values (JoinAbove, MirrorJoin), finding for each value the others
// that could be within the FT-violation threshold on that attribute, and
// avoiding the all-pairs comparison the naive semantics implies.
type Index struct {
	q     int
	strs  []string
	lens  []int
	gram  map[string][]posting // gram -> strings containing it, ascending id
	short []int32              // ids of strings with < q runes (indexed whole)
}

// posting records one string containing a gram and how many times the gram
// occurs in it. The count matters: the count filter bounds the *multiset*
// q-gram intersection, so repeated grams ("000000") must contribute their
// multiplicity, not just their presence.
type posting struct {
	id  int32
	cnt int32
}

// gramCount is one distinct gram of a string with its multiplicity.
type gramCount struct {
	gram string
	cnt  int32
}

// NewIndex creates an index over q-grams. q defaults to 2 when non-positive.
func NewIndex(q int) *Index {
	if q <= 0 {
		q = 2
	}
	return &Index{q: q, gram: make(map[string][]posting)}
}

// Q reports the gram size.
func (ix *Index) Q() int { return ix.q }

// Len reports the number of indexed strings.
func (ix *Index) Len() int { return len(ix.strs) }

// String returns the indexed string with the given id.
func (ix *Index) String(id int) string { return ix.strs[id] }

// gramCounts writes r's distinct q-grams with their multiplicities into
// dst[:0], in gram order.
func (ix *Index) gramCounts(dst []gramCount, r []rune) []gramCount {
	dst = dst[:0]
	for i := 0; i+ix.q <= len(r); i++ {
		dst = append(dst, gramCount{gram: string(r[i : i+ix.q]), cnt: 1})
	}
	slices.SortFunc(dst, func(a, b gramCount) int { return strings.Compare(a.gram, b.gram) })
	out := dst[:0]
	for _, g := range dst {
		if n := len(out); n > 0 && out[n-1].gram == g.gram {
			out[n-1].cnt++
		} else {
			out = append(out, g)
		}
	}
	return out
}

// Add indexes s and returns its id. Duplicates are indexed independently;
// callers that group equal values should add each distinct value once.
func (ix *Index) Add(s string) int {
	id := int32(len(ix.strs))
	ix.strs = append(ix.strs, s)
	r := runes(s)
	ix.lens = append(ix.lens, len(r))
	if len(r) < ix.q {
		ix.short = append(ix.short, id)
		return int(id)
	}
	for _, g := range ix.gramCounts(nil, r) {
		ix.gram[g.gram] = append(ix.gram[g.gram], posting{id: id, cnt: g.cnt})
	}
	return int(id)
}

// searchScratch is one query's reusable buffers: the query's grams and
// runes, a shared-gram counter per indexed id (all zero between queries),
// the ids it touched and the candidate list.
type searchScratch struct {
	grams   []gramCount
	runes   []rune
	counts  []int32
	touched []int32
	cands   []int32
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// candidates returns, ascending, the ids above `above` that pass the length
// and count filters for a query s of ls runes at edit bound maxDist. Short
// strings (and short queries) bypass the count filter: every short string is
// a candidate, and when the count filter cannot exclude anything — the query
// is shorter than a gram, or the minimum required shared-gram count is
// non-positive — every string passing the length filter is.
func (ix *Index) candidates(s string, ls, maxDist, above int, sc *searchScratch) []int32 {
	cands := sc.cands[:0]
	if ls < ix.q || ls-ix.q+1-maxDist*ix.q <= 0 {
		for id := above + 1; id < len(ix.strs); id++ {
			if abs(ix.lens[id]-ls) <= maxDist {
				cands = append(cands, int32(id))
			}
		}
		sc.cands = cands
		return cands
	}
	if len(sc.counts) < len(ix.strs) {
		sc.counts = make([]int32, len(ix.strs))
	}
	sc.runes = appendRunes(sc.runes[:0], s)
	sc.grams = ix.gramCounts(sc.grams, sc.runes)
	// Multiset intersection lower bound: per distinct gram, the shared
	// count is min(query occurrences, indexed occurrences).
	touched := sc.touched[:0]
	for _, g := range sc.grams {
		ps := ix.gram[g.gram]
		lo := sort.Search(len(ps), func(i int) bool { return int(ps[i].id) > above })
		for _, p := range ps[lo:] {
			if sc.counts[p.id] == 0 {
				touched = append(touched, p.id)
			}
			sc.counts[p.id] += min(g.cnt, p.cnt)
		}
	}
	for _, id := range touched {
		c := int(sc.counts[id])
		sc.counts[id] = 0
		lc := ix.lens[id]
		if abs(lc-ls) <= maxDist && c >= max(ls, lc)-ix.q+1-maxDist*ix.q {
			cands = append(cands, id)
		}
	}
	// Short indexed strings never share grams with a long query but may
	// still be within maxDist.
	for _, id := range ix.short {
		if int(id) > above && abs(ix.lens[id]-ls) <= maxDist {
			cands = append(cands, id)
		}
	}
	slices.Sort(cands)
	sc.touched, sc.cands = touched, cands
	return cands
}

// appendRunes appends s's runes to dst.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// Match pairs a candidate id with its verified edit distance.
type Match struct {
	ID   int
	Dist int // absolute edit distance
}

// Search returns the ids of indexed strings whose edit distance to s is at
// most maxDist, with the distances. The query string itself, if indexed,
// matches with distance 0. Results are in ascending id order.
func (ix *Index) Search(s string, maxDist int) []Match {
	return ix.search(s, utf8.RuneCountInString(s), maxDist, -1)
}

// search is Search for a query s of ls runes over the ids above `above`.
func (ix *Index) search(s string, ls, maxDist, above int) []Match {
	if maxDist < 0 {
		return nil
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	// The query's equivalence table is built once (pooled Matcher) and
	// streamed over every surviving candidate.
	mt := AcquireMatcher(s)
	defer mt.Release()
	var out []Match
	for _, id := range ix.candidates(s, ls, maxDist, above, sc) {
		if d, ok := mt.DistanceBounded(ix.strs[id], maxDist); ok {
			out = append(out, Match{ID: int(id), Dist: d})
		}
	}
	return out
}

// NormMatch pairs a candidate id with its verified normalized edit
// distance.
type NormMatch struct {
	ID   int
	Dist float64
}

// normBound is the largest edit distance at which a string of l runes can
// be within normalized distance t (0 <= t < 1) of another: the largest d
// with float64(d)/float64(l+d) <= t, since the other string has at most
// l+d runes. It is found by that same float comparison, so no pair within t
// falls outside it. Rounding t*l/(1-t) down instead can lose one: at l = 2
// and t = 0.3/0.5 it gives 2, yet a 5-rune string 3 edits away is at 3/5,
// which equals t.
func normBound(l int, t float64) int {
	const limit = 1 << 20
	if t >= 1 {
		return limit
	}
	d := int(math.Min(t*float64(l)/(1-t), limit))
	for d < limit && float64(d+1)/float64(l+d+1) <= t {
		d++
	}
	for d > 0 && float64(d)/float64(l+d) > t {
		d--
	}
	return d
}

// SearchNormalized returns ids whose normalized edit distance to s is at
// most t, with the normalized distances, in ascending id order.
func (ix *Index) SearchNormalized(s string, t float64) []NormMatch {
	return ix.searchNormalized(s, utf8.RuneCountInString(s), t, -1)
}

// JoinAbove returns the part of SearchNormalized(ix.String(id), t) above
// id: the strings with a higher id within normalized distance t. Calling
// it for every id verifies each unordered pair once; MirrorJoin then
// assembles every string's whole SearchNormalized result. Distinct ids may
// be joined concurrently.
func (ix *Index) JoinAbove(id int, t float64) []NormMatch {
	return ix.searchNormalized(ix.strs[id], ix.lens[id], t, id)
}

// searchNormalized is SearchNormalized for a query s of ls runes over the
// ids above `above`.
func (ix *Index) searchNormalized(s string, ls int, t float64, above int) []NormMatch {
	if !(t >= 0) {
		return nil
	}
	var out []NormMatch
	for _, m := range ix.search(s, ls, normBound(ls, t), above) {
		var nd float64
		if mx := max(ls, ix.lens[m.ID]); mx > 0 {
			nd = float64(m.Dist) / float64(mx)
		}
		if nd <= t {
			out = append(out, NormMatch{ID: m.ID, Dist: nd})
		}
	}
	return out
}

// MirrorJoin assembles full match lists from JoinAbove's halves at
// threshold t: list i holds the matches of the lower ids (mirrored from
// their halves), then i itself at distance 0, then above[i] — what
// SearchNormalized returns for string i. The lists share one backing
// array.
func MirrorJoin(above [][]NormMatch, t float64) [][]NormMatch {
	if !(t >= 0) {
		return make([][]NormMatch, len(above))
	}
	lower := make([]int, len(above))
	total := len(above)
	for _, ms := range above {
		total += 2 * len(ms)
		for _, m := range ms {
			lower[m.ID]++
		}
	}
	arena := make([]NormMatch, total)
	lists := make([][]NormMatch, len(above))
	cur := lower // reused as each list's write cursor
	off := 0
	for i, ms := range above {
		end := off + lower[i] + 1 + len(ms)
		lists[i] = arena[off:end:end]
		cur[i] = off
		off = end
	}
	for i, ms := range above {
		// Every lower id has placed its entry by now, in ascending order.
		arena[cur[i]] = NormMatch{ID: i}
		copy(arena[cur[i]+1:], ms)
		for _, m := range ms {
			arena[cur[m.ID]] = NormMatch{ID: i, Dist: m.Dist}
			cur[m.ID]++
		}
	}
	return lists
}
