package incr_test

import (
	"fmt"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/incr"
	"ftrepair/internal/ledger"
)

// TestEngineLedgerDeterministicAcrossWorkers fixes the batch split and
// varies only the worker count: the ledger's chained run root must be
// bit-identical, because events are addressed by shard ordinal and sorted by
// cell, never by goroutine scheduling. (Different batch splits legitimately
// produce different roots — the chain commits to flush boundaries — so the
// invariant is per-split; cross-split equivalence is undo-replay's job.)
func TestEngineLedgerDeterministicAcrossWorkers(t *testing.T) {
	inst := hospInstance(t, 300, 0)
	split := 100
	base := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:split]}
	rows := rowsOf(inst.Dirty)[split:]
	var ref string
	for _, workers := range []int{1, 2, 8} {
		led := ledger.New()
		ingest(t, base, rows, 40, inst.Set, inst.Cfg,
			incr.Options{Workers: workers, Ledger: led})
		if led.Len() == 0 {
			t.Fatal("ledger is empty; instance too clean to test determinism")
		}
		root := led.RunRootHex()
		if ref == "" {
			ref = root
			continue
		}
		if root != ref {
			t.Fatalf("workers=%d: run root %s != reference %s", workers, root, ref)
		}
	}
}

// TestEngineLedgerUndoRoundTrip checks the incremental ledger's replay
// contract at several batch splits and worker counts: every flush commits
// one batch whose events' Old values are the overwritten repaired-view
// cells, so undoing the whole ledger over the final snapshot reproduces the
// raw input exactly.
func TestEngineLedgerUndoRoundTrip(t *testing.T) {
	inst := hospInstance(t, 300, 0)
	split := 100
	base := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:split]}
	rows := rowsOf(inst.Dirty)[split:]
	for _, workers := range []int{1, 8} {
		for _, chunk := range []int{7, 60, len(rows)} {
			name := fmt.Sprintf("w%d/chunk%d", workers, chunk)
			led := ledger.New()
			eng := ingest(t, base, rows, chunk, inst.Set, inst.Cfg,
				incr.Options{Workers: workers, Ledger: led})
			for _, e := range led.Events() {
				if e.Algorithm == "" {
					t.Fatalf("%s: event seq %d has no algorithm", name, e.Seq)
				}
			}
			reverted, err := ledger.Undo(eng.Snapshot(), led.Events(), 0)
			if err != nil {
				t.Fatalf("%s: undo: %v", name, err)
			}
			mustEqualRelations(t, reverted, eng.InputSnapshot(), name+"/undo")
			// Forward replay over the raw input reproduces the snapshot.
			replayed := eng.InputSnapshot()
			for _, e := range led.Events() {
				if got := replayed.Tuples[e.Row][e.Col]; got != e.Old {
					t.Fatalf("%s: replay seq %d found %q, event recorded old %q", name, e.Seq, got, e.Old)
				}
				replayed.Tuples[e.Row][e.Col] = e.New
			}
			mustEqualRelations(t, replayed, eng.Snapshot(), name+"/replay")
		}
	}
}

// TestEngineLedgerOneBatchPerFlush pins the commit discipline: each flush
// that applied repairs lands as exactly one ledger batch, so batch count
// never exceeds the number of ingest flushes (plus the initial base
// repair), and no committed batch is empty.
func TestEngineLedgerOneBatchPerFlush(t *testing.T) {
	inst := hospInstance(t, 300, 0)
	split := 100
	base := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:split]}
	rows := rowsOf(inst.Dirty)[split:]
	chunk := 40
	led := ledger.New()
	ingest(t, base, rows, chunk, inst.Set, inst.Cfg, incr.Options{Workers: 2, Ledger: led})
	flushes := (len(rows)+chunk-1)/chunk + 1
	batches := led.Batches()
	if len(batches) == 0 || len(batches) > flushes {
		t.Fatalf("%d ledger batches for at most %d flushes", len(batches), flushes)
	}
	for _, b := range batches {
		if b.Count == 0 {
			t.Fatalf("batch %d is empty; empty commits must be no-ops", b.Index)
		}
	}
}

// TestEngineLedgerRecordsRevert: a later flush that puts a cell back to
// its input value is a write like any other. The first flush repairs the
// appended Bostn to Boston; the second brings three more Bostn rows, which
// outvote the two Boston rows, so the re-repair returns the first append
// to its own input value (a cell its run does not change) and rewrites the
// base rows. All three cells must be written, counted and ledgered.
func TestEngineLedgerRecordsRevert(t *testing.T) {
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
	led := ledger.New()
	eng, _, err := incr.NewEngine(base, set, cfg, incr.Options{Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if first, err := eng.Append([][]string{{"Bostn", "MA"}}, "", nil); err != nil || first.ChangedCells != 1 || !first.Rows[0].Repaired {
		t.Fatalf("first flush %+v, err %v; want Bostn repaired in one cell", first, err)
	}
	before := led.Len()
	second, err := eng.Append([][]string{{"Bostn", "MA"}, {"Bostn", "MA"}, {"Bostn", "MA"}}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.ChangedCells != 3 || second.Rewritten != 3 || second.Repaired != 0 {
		t.Fatalf("second flush changed %d cells, rewrote %d rows, repaired %d; want 3, 3, 0",
			second.ChangedCells, second.Rewritten, second.Repaired)
	}
	events := led.Events()[before:]
	var got []string
	for _, e := range events {
		got = append(got, fmt.Sprintf("%d:%s->%s", e.Row, e.Old, e.New))
	}
	if want := []string{"0:Boston->Bostn", "1:Boston->Bostn", "2:Boston->Bostn"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("second flush ledgered %v, want %v", got, want)
	}
	reverted, err := ledger.Undo(eng.Snapshot(), led.Events(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRelations(t, reverted, eng.InputSnapshot(), "undo")
}
