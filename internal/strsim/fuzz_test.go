package strsim

import (
	"math"
	"strings"
	"testing"
)

// FuzzLevenshteinKernel holds the bit-parallel kernels (single-word and
// blocked, ASCII and rune paths) to exact parity with the retained dynamic
// program. Run `go test -fuzz=FuzzLevenshteinKernel` to explore; the seed
// corpus runs in every normal test invocation.
func FuzzLevenshteinKernel(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "")
	f.Add("abc", "")
	f.Add("héllo", "hello")
	f.Add("日本語のテキスト", "日本语のテキスト")
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabcde", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaedcba")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 256 || len(b) > 256 {
			t.Skip()
		}
		if got, want := Levenshtein(a, b), LevenshteinDP(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %d, DP oracle = %d", a, b, got, want)
		}
	})
}

// FuzzLevenshteinBounded cross-checks the bounded kernel against the banded
// DP oracle on arbitrary inputs: distance AND ok-flag must agree exactly,
// including the early-exit rejections.
func FuzzLevenshteinBounded(f *testing.F) {
	f.Add("kitten", "sitting", 3)
	f.Add("", "", 0)
	f.Add("abc", "", 5)
	f.Add("héllo", "hello", 1)
	f.Add("aaaaaaaaaa", "bbbbbbbbbb", 2)
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabcde", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaedcba", 4)
	f.Fuzz(func(t *testing.T, a, b string, k int) {
		if len(a) > 256 || len(b) > 256 || k > 256 {
			t.Skip()
		}
		d, ok := LevenshteinBounded(a, b, k)
		dDP, okDP := LevenshteinBoundedDP(a, b, k)
		if ok != okDP || d != dDP {
			t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d,%v; DP oracle = %d,%v", a, b, k, d, ok, dDP, okDP)
		}
		full := LevenshteinDP(a, b)
		if k >= 0 && full <= k {
			if !ok || d != full {
				t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d,%v; full = %d", a, b, k, d, ok, full)
			}
		} else if ok {
			t.Fatalf("LevenshteinBounded(%q,%q,%d) accepted; full = %d", a, b, k, full)
		}
	})
}

// FuzzMatcher holds the one-vs-many Matcher — which keeps the pattern's
// equivalence table across calls — to the same oracle parity as the one-shot
// kernels, bounded and unbounded, over ASCII and multi-rune inputs.
func FuzzMatcher(f *testing.F) {
	f.Add("boston", "bostn", 1)
	f.Add("", "x", 0)
	f.Add("héllo", "h好llo", 2)
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabcde", "zzz", 100)
	f.Fuzz(func(t *testing.T, pat, text string, k int) {
		if len(pat) > 256 || len(text) > 256 || k > 256 {
			t.Skip()
		}
		mt := AcquireMatcher(pat)
		defer mt.Release()
		if got, want := mt.Distance(text), LevenshteinDP(pat, text); got != want {
			t.Fatalf("Matcher(%q).Distance(%q) = %d, DP oracle = %d", pat, text, got, want)
		}
		d, ok := mt.DistanceBounded(text, k)
		dDP, okDP := LevenshteinBoundedDP(pat, text, k)
		if ok != okDP || d != dDP {
			t.Fatalf("Matcher(%q).DistanceBounded(%q,%d) = %d,%v; DP oracle = %d,%v", pat, text, k, d, ok, dDP, okDP)
		}
	})
}

// FuzzOSABounded does the same for the transposition-aware distance.
func FuzzOSABounded(f *testing.F) {
	f.Add("ab", "ba", 1)
	f.Add("boston", "bsoton", 2)
	f.Add("", "xyz", 0)
	f.Fuzz(func(t *testing.T, a, b string, k int) {
		if len(a) > 64 || len(b) > 64 || k > 64 {
			t.Skip()
		}
		full := OSA(a, b)
		d, ok := OSABounded(a, b, k)
		if k >= 0 && full <= k {
			if !ok || d != full {
				t.Fatalf("OSABounded(%q,%q,%d) = %d,%v; full = %d", a, b, k, d, ok, full)
			}
		} else if ok {
			t.Fatalf("OSABounded(%q,%q,%d) accepted; full = %d", a, b, k, full)
		}
	})
}

// FuzzIndexSearch checks that the q-gram index never misses a true match.
func FuzzIndexSearch(f *testing.F) {
	f.Add("boston", "boton", "albany", 1)
	f.Add("", "a", "ab", 2)
	f.Fuzz(func(t *testing.T, q, s1, s2 string, k int) {
		if len(q) > 32 || len(s1) > 32 || len(s2) > 32 || k < 0 || k > 8 {
			t.Skip()
		}
		ix := NewIndex(2)
		ix.Add(s1)
		ix.Add(s2)
		got := map[int]bool{}
		for _, m := range ix.Search(q, k) {
			got[m.ID] = true
		}
		for id, s := range []string{s1, s2} {
			want := Levenshtein(q, s) <= k
			if got[id] != want {
				t.Fatalf("Search(%q,%d) id %d (%q): got %v want %v", q, k, id, s, got[id], want)
			}
		}
	})
}

// FuzzSelfJoin holds the column self-join, run in two appends
// (JoinAppended over each append's ids, then ExtendJoin), to
// SearchNormalized on the whole index: for every string the same ids, in
// the same order, with the same distance bits; and the match relation must
// be symmetric with equal distances both ways. The strings are short so
// the filters' boundary cases (short strings, scan mode, count mode) all
// occur, and the split point varies with the input, so the first append
// is sometimes empty and sometimes everything.
func FuzzSelfJoin(f *testing.F) {
	f.Add([]byte("ab,ab456,abc,b,,xyz,ab45"), byte(120))
	f.Add([]byte("000000,000001,100000,0,00"), byte(86))
	f.Add([]byte("boston,bostn,boton,austin,boston"), byte(60))
	f.Add([]byte("a,b,c"), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, tb byte) {
		strs := strings.Split(string(data), ",")
		if len(strs) > 24 {
			t.Skip()
		}
		for _, s := range strs {
			if len(s) > 12 {
				t.Skip()
			}
		}
		tt := float64(tb) / 200
		ix := NewIndex(2)
		var lists [][]NormMatch
		split := len(data) % (len(strs) + 1)
		for _, part := range [][]string{strs[:split], strs[split:]} {
			old := ix.Len()
			for _, s := range part {
				ix.Add(s)
			}
			above := make([][]NormMatch, len(part))
			for i := range above {
				above[i] = ix.JoinAppended(old+i, old, tt)
			}
			lists = ExtendJoin(lists, above, tt)
		}
		for id, s := range strs {
			want := ix.SearchNormalized(s, tt)
			got := lists[id]
			if len(got) != len(want) {
				t.Fatalf("t=%v %q: join %v, search %v", tt, s, got, want)
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("t=%v %q: join %v, search %v", tt, s, got, want)
				}
			}
			for _, m := range got {
				back := false
				for _, r := range lists[m.ID] {
					if r.ID == id {
						back = math.Float64bits(r.Dist) == math.Float64bits(m.Dist)
					}
				}
				if !back {
					t.Fatalf("t=%v: %q matches %q at %v but not back", tt, s, strs[m.ID], m.Dist)
				}
			}
		}
	})
}
