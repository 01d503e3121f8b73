package strsim

// QGrams returns the multiset of q-grams of s as a map from gram to count,
// computed over runes. Strings shorter than q contribute a single gram equal
// to the whole string, so very short values still overlap with themselves.
func QGrams(s string, q int) map[string]int {
	if q <= 0 {
		q = 2
	}
	r := runes(s)
	grams := make(map[string]int)
	if len(r) < q {
		grams[string(r)]++
		return grams
	}
	for i := 0; i+q <= len(r); i++ {
		grams[string(r[i:i+q])]++
	}
	return grams
}

// JaccardDistance returns 1 - |A∩B| / |A∪B| over the q-gram sets of a and
// b (set semantics: counts clipped at 1). It is in [0,1].
func JaccardDistance(a, b string, q int) float64 {
	if a == b {
		return 0
	}
	inter, union := JaccardCounts(a, b, q)
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// JaccardCounts returns |A∩B| and |A∪B| over the q-gram sets of a and b:
// the two counts JaccardDistance divides. Caches that store the counts
// reconstruct the distance bit for bit with the same expression.
func JaccardCounts(a, b string, q int) (inter, union int) {
	ga, gb := QGrams(a, q), QGrams(b, q)
	for g := range ga {
		if _, ok := gb[g]; ok {
			inter++
		}
	}
	return inter, len(ga) + len(gb) - inter
}

// Euclidean returns |a-b| / span, a normalized distance in [0,1] for numeric
// values whose observed domain width is span. A non-positive span (constant
// column) makes any two distinct values maximally distant and equal values
// identical, which matches the paper's normalization "dividing by the
// largest distance".
func Euclidean(a, b, span float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if span <= 0 {
		// d is an absolute difference, so <= 0 means exactly equal.
		if d <= 0 {
			return 0
		}
		return 1
	}
	nd := d / span
	if nd > 1 {
		nd = 1
	}
	return nd
}
