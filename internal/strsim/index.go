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
// distinct values (JoinAppended, ExtendJoin), finding for each value the others
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

// candidates returns, ascending, the ids below old or above self that pass
// the length and count filters for a query s of ls runes at edit bound
// maxDist. Short strings (and short queries) bypass the count filter: every
// short string is a candidate, and when the count filter cannot exclude
// anything — the query is shorter than a gram, or the minimum required
// shared-gram count is non-positive — every string passing the length
// filter is.
func (ix *Index) candidates(s string, ls, maxDist, old, self int, sc *searchScratch) []int32 {
	cands := sc.cands[:0]
	if ls < ix.q || ls-ix.q+1-maxDist*ix.q <= 0 {
		scan := func(from, to int) {
			for id := from; id < to; id++ {
				if abs(ix.lens[id]-ls) <= maxDist {
					cands = append(cands, int32(id))
				}
			}
		}
		scan(0, old)
		scan(self+1, len(ix.strs))
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
		lo := 0
		if old > 0 {
			lo = sort.Search(len(ps), func(i int) bool { return int(ps[i].id) >= old })
		}
		hi := sort.Search(len(ps), func(i int) bool { return int(ps[i].id) > self })
		for _, p := range ps[:lo] {
			if sc.counts[p.id] == 0 {
				touched = append(touched, p.id)
			}
			sc.counts[p.id] += min(g.cnt, p.cnt)
		}
		for _, p := range ps[max(lo, hi):] {
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
		if (int(id) < old || int(id) > self) && abs(ix.lens[id]-ls) <= maxDist {
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
	return ix.search(s, utf8.RuneCountInString(s), maxDist, 0, -1)
}

// search is Search for a query s of ls runes over the ids below old or
// above self.
func (ix *Index) search(s string, ls, maxDist, old, self int) []Match {
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
	for _, id := range ix.candidates(s, ls, maxDist, old, self, sc) {
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
	return ix.searchNormalized(s, utf8.RuneCountInString(s), t, 0, -1)
}

// JoinAppended returns the part of SearchNormalized(ix.String(id), t) that
// a self-join appending strings old, old+1, ... still has to verify for
// string id (id >= old): its matches below old and above id. Calling it for
// every appended id verifies each new unordered pair once, and no pair of
// two strings below old; ExtendJoin then assembles every string's whole
// SearchNormalized result. With old 0 it is a plain self-join's half above
// id. Distinct ids may be joined concurrently.
func (ix *Index) JoinAppended(id, old int, t float64) []NormMatch {
	return ix.searchNormalized(ix.strs[id], ix.lens[id], t, old, id)
}

// searchNormalized is SearchNormalized for a query s of ls runes over the
// ids below old or above self.
func (ix *Index) searchNormalized(s string, ls int, t float64, old, self int) []NormMatch {
	if !(t >= 0) {
		return nil
	}
	var out []NormMatch
	for _, m := range ix.search(s, ls, normBound(ls, t), old, self) {
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

// ExtendJoin extends a self-join at threshold t by the strings appended
// after it. lists holds the full match lists of strings [0, old), and
// above[i] the JoinAppended result of string old+i. The returned lists hold
// what SearchNormalized returns for every string: an old list gains its
// matches among the appended strings after its old entries (moving to a
// fresh array when it gains any), and an appended string's list holds its
// old matches, the matches of lower appended ids (mirrored from their
// results), itself at distance 0, then its matches above. The appended
// strings' lists share one backing array. With no old lists this is the
// whole self-join.
func ExtendJoin(lists, above [][]NormMatch, t float64) [][]NormMatch {
	old := len(lists)
	if !(t >= 0) {
		return append(lists, make([][]NormMatch, len(above))...)
	}
	// gain[id] counts the entries id receives mirrored from appended
	// strings below it; it is then reused as each list's write cursor.
	gain := make([]int, old+len(above))
	total := len(above)
	for _, ms := range above {
		total += 2 * len(ms)
		for _, m := range ms {
			gain[m.ID]++
		}
	}
	for o, l := range lists {
		if gain[o] > 0 {
			grown := make([]NormMatch, len(l), len(l)+gain[o])
			copy(grown, l)
			lists[o] = grown
		}
	}
	arena := make([]NormMatch, 0, total)
	for i, ms := range above {
		id := old + i
		split := 0
		for split < len(ms) && ms[split].ID < old {
			split++
		}
		start := len(arena)
		arena = append(arena, ms[:split]...)
		cur := len(arena)
		arena = arena[:cur+gain[id]]
		arena = append(arena, NormMatch{ID: id})
		arena = append(arena, ms[split:]...)
		lists = append(lists, arena[start:len(arena):len(arena)])
		gain[id] = cur - start
	}
	for i, ms := range above {
		id := old + i
		for _, m := range ms {
			if m.ID < old {
				lists[m.ID] = append(lists[m.ID], NormMatch{ID: id, Dist: m.Dist})
				continue
			}
			// Every lower appended id has placed its entry by now, in
			// ascending order.
			lists[m.ID][gain[m.ID]] = NormMatch{ID: id, Dist: m.Dist}
			gain[m.ID]++
		}
	}
	return lists
}
