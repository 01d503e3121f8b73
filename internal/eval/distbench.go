package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/strsim"
)

// distSink accumulates benchmark results so the measured calls cannot be
// dead-code eliminated.
var distSink int

// dbWord draws a lowercase word; the 16-letter alphabet mirrors the mixed
// density of relational attribute values.
func dbWord(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnop"
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// dbMutate applies up to k random character edits to s.
func dbMutate(rng *rand.Rand, s string, k int) string {
	const alphabet = "abcdefghijklmnop"
	b := []byte(s)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0:
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case op == 1:
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[p:]...)...)
		default:
			if len(b) > 0 {
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			}
		}
	}
	return string(b)
}

// DistBench times the string-distance hot paths: the bit-parallel edit
// kernels against the retained DP oracles at lengths straddling the 64-char
// word boundary, the one-vs-many Matcher (pattern tables built once per
// stream), and a warmed DistCache answering interned pairs from the
// distance plane versus the sharded map; ns/op is per comparison.
// Candidates are near pairs (a few edits apart) — the case the length
// prefilters cannot reject, which is what survives to the kernels in real
// builds. Ratios: "kernel/len<L>" (DP → kernel), "matcher/len<L>" (one-shot
// kernel → streamed Matcher) and "plane" (map hit → plane hit).
func DistBench(c BenchConfig) (*BenchDoc, error) {
	c.Workload, c.N = "synthetic", 0
	r := newBenchRun("strsim", c)
	rng := rand.New(rand.NewSource(c.Seed))
	const streamLen = 64
	for _, length := range []int{8, 16, 64, 128} {
		pat := dbWord(rng, length)
		cands := make([]string, streamLen)
		for i := range cands {
			cands[i] = dbMutate(rng, pat, 1+rng.Intn(3))
		}
		dp := fmt.Sprintf("dp/len%d", length)
		kernel := fmt.Sprintf("kernel/len%d", length)
		matcher := fmt.Sprintf("matcher/len%d", length)
		if _, err := r.time(dp, 0, streamLen, func(int) error {
			for _, cand := range cands {
				distSink += strsim.LevenshteinDP(pat, cand)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if _, err := r.time(kernel, 0, streamLen, func(int) error {
			for _, cand := range cands {
				distSink += strsim.Levenshtein(pat, cand)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if _, err := r.time(matcher, 0, streamLen, func(int) error {
			mt := strsim.AcquireMatcher(pat)
			for _, cand := range cands {
				distSink += mt.Distance(cand)
			}
			mt.Release()
			return nil
		}); err != nil {
			return nil, err
		}
		r.ratio(kernel, dp, kernel)
		r.ratio(matcher, kernel, matcher)
	}

	// Cache hit paths: one column of distinct 12-char values, every pair
	// warmed, then re-queried — the plane (interned codes, one atomic load)
	// against the sharded map (hash + RWMutex).
	const domain = 128
	const alphabet = "abcdefghijklmnop"
	vals := make([]string, domain)
	for i := range vals {
		// 8 random chars plus a 4-char base-16 index tag: 12 chars from the
		// same alphabet, distinct by construction (no retry loop needed).
		tag := []byte{
			alphabet[(i>>12)&15], alphabet[(i>>8)&15],
			alphabet[(i>>4)&15], alphabet[i&15],
		}
		vals[i] = dbWord(rng, 8) + string(tag)
	}
	rows := make([][]string, domain)
	for i, v := range vals {
		rows[i] = []string{v}
	}
	rel, err := dataset.FromRows(dataset.Strings("A"), rows)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]string, 4096)
	for i := range pairs {
		a, b := rng.Intn(domain), rng.Intn(domain-1)
		if b >= a {
			b++
		}
		pairs[i] = [2]string{vals[a], vals[b]}
	}
	hitBatch := func(cfg *fd.DistConfig) func(int) error {
		return func(int) error {
			for _, p := range pairs {
				distSink += int(cfg.AttrDist(0, p[0], p[1]) * 64)
			}
			return nil
		}
	}
	// Each config is warmed with one untimed batch, so every pair resolves
	// exactly; a batch cannot fail.
	planed := fd.DefaultDistConfig(rel)
	_ = hitBatch(planed)(0)
	mapped := fd.DefaultDistConfig(rel)
	mapped.Dicts = nil
	mapped.Cache = fd.NewDistCache()
	_ = hitBatch(mapped)(0)
	if _, err := r.time("maphit", 0, len(pairs), hitBatch(mapped)); err != nil {
		return nil, err
	}
	if _, err := r.time("planehit", 0, len(pairs), hitBatch(planed)); err != nil {
		return nil, err
	}
	r.ratio("plane", "maphit", "planehit")
	return r.doc, nil
}
