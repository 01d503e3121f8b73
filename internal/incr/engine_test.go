package incr_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/incr"
	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

// hospInstance prepares a HOSP instance with the given FD count.
func hospInstance(t *testing.T, n, nfds int) *eval.Instance {
	t.Helper()
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: n, FDs: nfds, ErrorRate: 0.05, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func rowsOf(rel *dataset.Relation) [][]string {
	out := make([][]string, rel.Len())
	for i, tp := range rel.Tuples {
		out[i] = tp
	}
	return out
}

func mustEqualRelations(t *testing.T, got, want *dataset.Relation, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		for j := range want.Tuples[i] {
			if got.Tuples[i][j] != want.Tuples[i][j] {
				t.Fatalf("%s: cell (%d,%d) = %q, want %q", label, i, j,
					got.Tuples[i][j], want.Tuples[i][j])
			}
		}
	}
}

// ingest feeds rows into a fresh engine over base, in chunks of size chunk.
func ingest(t *testing.T, base *dataset.Relation, rows [][]string, chunk int,
	set *fd.Set, cfg *fd.DistConfig, opts incr.Options) *incr.Engine {
	t.Helper()
	eng, _, err := incr.NewEngine(base, set, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(rows); off += chunk {
		end := off + chunk
		if end > len(rows) {
			end = len(rows)
		}
		if _, err := eng.Append(rows[off:end], "manual", nil); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestEngineEquivalenceSingleFD is the core oracle: for a single FD, the
// sharded batched ingest must be bit-identical to one-shot GreedyS over the
// full input — at any batch split, any worker count, and any row order.
func TestEngineEquivalenceSingleFD(t *testing.T) {
	inst := hospInstance(t, 400, 1)
	orders := map[string][]int{"natural": nil, "shuffled": rand.New(rand.NewSource(7)).Perm(inst.Dirty.Len())}
	for oname, perm := range orders {
		full := inst.Dirty
		if perm != nil {
			full = &dataset.Relation{Schema: inst.Dirty.Schema}
			for _, i := range perm {
				full.Tuples = append(full.Tuples, inst.Dirty.Tuples[i])
			}
		}
		oneshot, err := repair.GreedyS(full, inst.Set.FDs[0], inst.Cfg, inst.Set.Tau[0], repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		split := 150
		base := &dataset.Relation{Schema: full.Schema, Tuples: full.Tuples[:split]}
		rows := rowsOf(full)[split:]
		for _, workers := range []int{1, 2, 8} {
			for _, chunk := range []int{5, 40, len(rows)} {
				name := fmt.Sprintf("%s/w%d/chunk%d", oname, workers, chunk)
				eng := ingest(t, base, rows, chunk, inst.Set, inst.Cfg,
					incr.Options{Algorithm: "GreedyS", Workers: workers})
				mustEqualRelations(t, eng.Snapshot(), oneshot.Repaired, name)
				if err := repair.VerifyFTConsistent(eng.Snapshot(), inst.Set, inst.Cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestEngineEquivalenceMultiFD pins the batched multi-FD ingest to the
// engine's own from-scratch reference (RepairAll): identical output at any
// batch split and worker count, and FT-consistent throughout.
func TestEngineEquivalenceMultiFD(t *testing.T) {
	inst := hospInstance(t, 300, 0)
	oracle, _, err := incr.RepairAll(inst.Dirty, inst.Set, inst.Cfg, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	split := 100
	base := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:split]}
	rows := rowsOf(inst.Dirty)[split:]
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{7, 60, len(rows)} {
			name := fmt.Sprintf("w%d/chunk%d", workers, chunk)
			eng := ingest(t, base, rows, chunk, inst.Set, inst.Cfg,
				incr.Options{Workers: workers})
			mustEqualRelations(t, eng.Snapshot(), oracle, name)
			if err := repair.VerifyFTConsistent(eng.Snapshot(), inst.Set, inst.Cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			st := eng.Stats()
			if st.Accepted != len(rows) {
				t.Fatalf("%s: accepted = %d, want %d", name, st.Accepted, len(rows))
			}
		}
	}
}

// TestEngineCancelSelfHeals: a canceled flush leaves its shards dirty and
// provisional (ErrCanceled partial semantics); the next flush re-repairs
// them and converges to the from-scratch result.
func TestEngineCancelSelfHeals(t *testing.T) {
	inst := hospInstance(t, 300, 0)
	split := 200
	base := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:split]}
	eng, _, err := incr.NewEngine(base, inst.Set, inst.Cfg, incr.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel)
	br, err := eng.Append(rowsOf(inst.Dirty)[split:], "manual", cancel)
	if err != repair.ErrCanceled {
		t.Fatalf("canceled append err = %v, want ErrCanceled", err)
	}
	if br.Accepted != inst.Dirty.Len()-split {
		t.Fatalf("canceled append admitted %d rows, want %d", br.Accepted, inst.Dirty.Len()-split)
	}
	// The rows are admitted with provisional values; a later (empty) flush
	// picks up the leftover dirty shards.
	heal, err := eng.Append(nil, "manual", nil)
	if err != nil {
		t.Fatal(err)
	}
	if heal.ShardsTouched == 0 {
		t.Fatal("healing flush found no leftover dirty shards")
	}
	oracle, _, err := incr.RepairAll(inst.Dirty, inst.Set, inst.Cfg, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRelations(t, eng.Snapshot(), oracle, "after heal")
	if err := repair.VerifyFTConsistent(eng.Snapshot(), inst.Set, inst.Cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRejectsBadRows: per-row validation failures are reported and
// skipped without poisoning the batch.
func TestEngineRejectsBadRows(t *testing.T) {
	inst := hospInstance(t, 100, 1)
	eng, _, err := incr.NewEngine(inst.Dirty, inst.Set, inst.Cfg, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := append([]string(nil), inst.Dirty.Tuples[0]...)
	br, err := eng.Append([][]string{{"too", "short"}, good}, "manual", nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Rows[0].Err == nil {
		t.Fatal("arity error not reported")
	}
	if br.Rows[1].Err != nil || br.Rows[1].Values == nil {
		t.Fatalf("good row rejected: %+v", br.Rows[1])
	}
	if br.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1", br.Accepted)
	}
}

// TestEngineTouchBoundedWork: a batch touching one small neighborhood must
// not re-repair the whole relation — the largest touched shard stays far
// below the relation size. Uses the 3-FD HOSP subset: the full 9-FD set
// contains low-cardinality FDs whose shared patterns chain every row into
// one shard (locality degrades to from-scratch there, by design).
func TestEngineTouchBoundedWork(t *testing.T) {
	inst := hospInstance(t, 1000, 3)
	eng, _, err := incr.NewEngine(inst.Dirty, inst.Set, inst.Cfg, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-append a copy of an existing row: it lands in that row's shard only.
	br, err := eng.Append([][]string{append([]string(nil), inst.Dirty.Tuples[3]...)}, "manual", nil)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if br.MaxShardRows >= st.Rows/2 {
		t.Fatalf("touched shard has %d rows of %d — shards are not localizing", br.MaxShardRows, st.Rows)
	}
	if br.ShardsTouched == 0 {
		t.Fatal("no shard touched by an appended row")
	}
}

// TestEngineFlushRewritesEarlierRows: a flush reruns the algorithm over
// all of a shard's rows, so new evidence can outvote rows that earlier
// flushes accepted, and BatchResult.Rewritten counts them. Two standing
// Boston rows win against one appended Bostn; three more Bostn rows then
// turn the whole shard to Bostn, the two base rows and the first append
// included.
func TestEngineFlushRewritesEarlierRows(t *testing.T) {
	base, err := dataset.FromRows(dataset.Strings("City", "State"), [][]string{{"Boston", "MA"}, {"Boston", "MA"}})
	if err != nil {
		t.Fatal(err)
	}
	set, err := fd.NewSet([]*fd.FD{fd.MustParse(base.Schema, "City -> State")}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fd.NewDistConfig(base, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []repair.Algorithm{repair.AlgoGreedyS, repair.AlgoGreedyM} {
		eng, _, err := incr.NewEngine(base, set, cfg, incr.Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		first, err := eng.Append([][]string{{"Bostn", "MA"}}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := first.Rows[0].Values[0]; got != "Boston" || first.Rewritten != 0 {
			t.Fatalf("%s: first flush wrote %q and rewrote %d rows, want Boston and 0", algo, got, first.Rewritten)
		}
		second, err := eng.Append([][]string{{"Bostn", "MA"}, {"Bostn", "MA"}, {"Bostn", "MA"}}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if second.Rewritten != 3 || eng.Stats().Rewritten != 3 {
			t.Fatalf("%s: second flush rewrote %d rows (stats %d), want 3", algo, second.Rewritten, eng.Stats().Rewritten)
		}
		for i, tp := range eng.Snapshot().Tuples {
			if tp[0] != "Bostn" {
				t.Fatalf("%s: row %d reads %v after the second flush, want Bostn", algo, i, tp)
			}
		}
	}
}

// TestEngineRejectsUnknownAlgorithm covers constructor validation.
func TestEngineRejectsUnknownAlgorithm(t *testing.T) {
	inst := hospInstance(t, 50, 0)
	if _, _, err := incr.NewEngine(inst.Dirty, inst.Set, inst.Cfg, incr.Options{Algorithm: "Bogus"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, _, err := incr.NewEngine(inst.Dirty, inst.Set, inst.Cfg, incr.Options{Algorithm: "GreedyS"}); err == nil {
		t.Fatal("GreedyS accepted with a multi-FD set")
	}
}

// shardReference repairs rel the way the engine's sharding promises,
// sharing no code with the engine's graph state or shard routing: one
// vgraph.BuildSet over all of rel, then per FD component the link
// components of its graphs (rows linked by a shared vertex or an edge),
// each repaired by repair.Run over its sub-relation and written back over
// the component's attributes.
func shardReference(t *testing.T, rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, algo repair.Algorithm) *dataset.Relation {
	t.Helper()
	out := rel.Clone()
	graphs := vgraph.BuildSet(rel, set.FDs, cfg, set.Tau, vgraph.Options{Workers: 1})
	for _, idx := range set.Components() {
		sub := set.Subset(idx)
		parent := make([]int, rel.Len())
		for r := range parent {
			parent[r] = r
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				x = parent[x]
			}
			return x
		}
		link := func(a, b int) { parent[find(a)] = find(b) }
		for _, i := range idx {
			g := graphs[i]
			for v := range g.Vertices {
				r0 := g.Vertices[v].Rows[0]
				for _, r := range g.Vertices[v].Rows {
					link(r, r0)
				}
				for _, e := range g.Neighbors(v) {
					link(g.Vertices[e.To].Rows[0], r0)
				}
			}
		}
		shards := map[int][]int{}
		for r := range parent {
			shards[find(r)] = append(shards[find(r)], r)
		}
		for _, rows := range shards {
			part := &dataset.Relation{Schema: rel.Schema}
			for _, r := range rows {
				part.Tuples = append(part.Tuples, rel.Tuples[r])
			}
			res, err := repair.Run(part, sub, cfg, algo, repair.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range rows {
				for _, c := range fd.UnionAttrs(sub.FDs) {
					out.Tuples[r][c] = res.Repaired.Tuples[k][c]
				}
			}
		}
	}
	return out
}

// TestEngineMatchesShardReference holds the batched multi-FD engine to
// shardReference, which shares no code with the engine's graph state, so
// a shard run handed wrong graphs or the wrong rows fails here even where
// RepairAll, which reads the same state, would agree with the engine.
func TestEngineMatchesShardReference(t *testing.T) {
	inst := hospInstance(t, 300, 0)
	split := 100
	base := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:split]}
	rows := rowsOf(inst.Dirty)[split:]
	for _, algo := range []repair.Algorithm{repair.AlgoGreedyM, repair.AlgoApproM} {
		want := shardReference(t, inst.Dirty, inst.Set, inst.Cfg, algo)
		for _, workers := range []int{1, 2, 8} {
			for _, chunk := range []int{7, 60, len(rows)} {
				name := fmt.Sprintf("%s/w%d/chunk%d", algo, workers, chunk)
				eng := ingest(t, base, rows, chunk, inst.Set, inst.Cfg,
					incr.Options{Algorithm: algo, Workers: workers})
				mustEqualRelations(t, eng.Snapshot(), want, name)
			}
		}
	}
}

// TestEngineGraphOptions: the engine's graph state honours
// Repair.Graph.DisableIndex and Workers (the output does not change), and
// NewEngine rejects the switches a state kept across flushes cannot
// honour.
func TestEngineGraphOptions(t *testing.T) {
	inst := hospInstance(t, 200, 3)
	want, _, err := incr.RepairAll(inst.Dirty, inst.Set, inst.Cfg, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []vgraph.Options{{DisableIndex: true}, {Workers: 1}, {Workers: 3}} {
		got, _, err := incr.RepairAll(inst.Dirty, inst.Set, inst.Cfg, incr.Options{Repair: repair.Options{Graph: g}})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRelations(t, got, want, fmt.Sprintf("%+v", g))
	}
	for _, g := range []vgraph.Options{{DisableGrouping: true}, {Cancel: make(chan struct{})}} {
		if _, _, err := incr.NewEngine(inst.Dirty, inst.Set, inst.Cfg, incr.Options{Repair: repair.Options{Graph: g}}); err == nil {
			t.Fatalf("NewEngine accepted graph options %+v", g)
		}
	}
}
