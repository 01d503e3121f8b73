package fd

import (
	"sync/atomic"

	"ftrepair/internal/dataset"
)

// distPlane memoizes the distances of one column's interned value pairs in
// a flat triangular array: cell(a, b) with a < b lives at b*(b-1)/2 + a.
// Reads are a single atomic load — no hashing, no locks — which is what the
// 99%-hit distance paths of graph construction pay per pair. Writes are
// improve-only compare-and-swap upgrades, so concurrent build workers race
// benignly: a lost race leaves a weaker (still correct) entry, never a
// wrong one, and cached runs stay bit-identical to uncached ones at any
// worker count.
//
// Cell encoding (uint32) for the edit flavors:
//
//	0                  — empty
//	planeExactBit | k  — the exact integer edit distance is k
//	L + 1              — lower bound: the distance strictly exceeds L, the
//	                     maxDist of a rejecting bounded evaluation
//
// The normalized distance is reconstructed as float64(k) / float64(m) with
// m the longer rune length from the dictionary — the exact expression
// NormalizedEdit/NormalizedOSA evaluate, so reconstruction is bitwise equal
// to recomputation. Storing the integer rather than a rounded float is what
// keeps the repair output bit-identical (a float32 cell would perturb the
// last bits of cost sums). A bound is consulted in integer space: a bounded
// query with budget t rejects outright when its int(t*m) does not exceed a
// stored L.
//
// Jaccard cells are always exact: planeExactBit | inter<<16 | union, the
// pair's 2-gram set intersection (15 bits) and union (16 bits) counts from
// strsim.JaccardCounts, reconstructed as 1 - inter/union — again the
// expression JaccardDistance evaluates. Pairs whose counts do not fit are
// computed uncached.
type distPlane struct {
	dict  *dataset.Dict
	cells []atomic.Uint32
}

const (
	planeExactBit = uint32(1) << 31
	// planeMaxCells caps one column's triangular cell count (pairs of
	// distinct values); 1<<22 cells is 16 MiB. Columns with larger active
	// domains compute uncached.
	planeMaxCells = 1 << 22
	// planeTotalCells caps the summed cell count across all columns of one
	// cache, bounding a config's plane memory at 32 MiB.
	planeTotalCells = 1 << 23

	jaccardUnionBits = 16
	jaccardMaxUnion  = 1<<jaccardUnionBits - 1
	jaccardMaxInter  = 1<<15 - 1
)

// planeCells is the triangular size for n distinct values.
func planeCells(n int) int { return n * (n - 1) / 2 }

// newDistPlane allocates the empty plane over a column dictionary.
func newDistPlane(dict *dataset.Dict) *distPlane {
	return &distPlane{dict: dict, cells: make([]atomic.Uint32, planeCells(dict.Len()))}
}

// cell addresses the pair's triangular slot; codes must differ.
func (p *distPlane) cell(a, b int32) *atomic.Uint32 {
	if a > b {
		a, b = b, a
	}
	return &p.cells[int(b)*(int(b)-1)/2+int(a)]
}

// load fetches the raw cell value (0 when the pair was never evaluated).
func (p *distPlane) load(a, b int32) uint32 { return p.cell(a, b).Load() }

// storeExact records the exact cell value v (planeExactBit set),
// superseding any bound, and reports whether it filled an empty cell. An
// exact value is a pure function of the pair, so once a cell is exact it
// never changes.
func (p *distPlane) storeExact(a, b int32, v uint32) bool {
	c := p.cell(a, b)
	for {
		old := c.Load()
		if old&planeExactBit != 0 {
			return false
		}
		if c.CompareAndSwap(old, v) {
			return old == 0
		}
	}
}

// storeBound records that the pair's distance strictly exceeds L and
// reports whether it filled an empty cell. Exact entries and stronger
// (larger) bounds are kept.
func (p *distPlane) storeBound(a, b int32, L int) bool {
	c := p.cell(a, b)
	v := uint32(L) + 1
	for {
		old := c.Load()
		if old&planeExactBit != 0 || old >= v {
			return false
		}
		if c.CompareAndSwap(old, v) {
			return old == 0
		}
	}
}

// occupied counts non-empty cells, for DistCache.Len.
func (p *distPlane) occupied() int {
	n := 0
	for i := range p.cells {
		if p.cells[i].Load() != 0 {
			n++
		}
	}
	return n
}
