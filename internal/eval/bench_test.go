package eval

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ftrepair/internal/repair"
)

// TestBenchRunTime: the timing helper runs a fixed count exactly once and
// a MinTime entry in benchLoops loops, reports per operation, skips a name
// measured before, and records nothing for a failed or canceled entry.
func TestBenchRunTime(t *testing.T) {
	r := newBenchRun("test", BenchConfig{MinTime: time.Millisecond})
	calls := 0
	e, err := r.time("fixed", 3, 4, func(i int) error {
		if i != calls {
			t.Errorf("op(%d) on call %d", i, calls)
		}
		calls++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || e == nil || e.Iters != 3 || calls != 3 {
		t.Fatalf("fixed entry %+v, err %v, %d calls", e, err, calls)
	}
	if perOp := float64(time.Millisecond) / 4; e.NsPerOp < perOp {
		t.Errorf("ns/op %.0f, want at least %.0f (a 1ms call of 4 ops)", e.NsPerOp, perOp)
	}
	if e.slowest < time.Millisecond {
		t.Errorf("slowest iteration %v, want at least 1ms", e.slowest)
	}
	if again, err := r.time("fixed", 3, 4, func(int) error {
		t.Error("a measured name ran again")
		return nil
	}); again != nil || err != nil {
		t.Errorf("re-measuring returned %+v, %v", again, err)
	}

	loops := 0
	if e, err := r.time("timed", 0, 1, func(i int) error {
		if i == 0 {
			loops++
		}
		return nil
	}); err != nil || e.Iters < 1 || loops != benchLoops {
		t.Fatalf("timed entry %+v, err %v, %d loops (want %d)", e, err, loops, benchLoops)
	}
	r.ratio("fixed-vs-timed", "fixed", "timed")
	r.ratio("fixed-vs-missing", "fixed", "missing")
	if _, ok := r.doc.Ratios["fixed-vs-timed"]; !ok || len(r.doc.Ratios) != 1 {
		t.Errorf("ratios %v, want only fixed-vs-timed", r.doc.Ratios)
	}

	boom := errors.New("boom")
	if _, err := r.time("failed", 0, 1, func(int) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("failed op returned %v", err)
	}
	canceled := make(chan struct{})
	close(canceled)
	r.cancel = canceled
	if _, err := r.time("canceled", 0, 1, func(int) error { return nil }); !errors.Is(err, repair.ErrCanceled) {
		t.Errorf("canceled run returned %v", err)
	}
	if len(r.doc.Entries) != 2 {
		t.Errorf("%d entries, want fixed and timed only", len(r.doc.Entries))
	}
}

// TestCommittedBenchDocsRoundTrip pins the committed BENCH_*.json files to
// the harness's document type: each decodes with no unknown field and
// WriteFile reproduces it byte for byte.
func TestCommittedBenchDocsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json files found")
	}
	for _, path := range paths {
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(committed))
		dec.DisallowUnknownFields()
		var doc BenchDoc
		if err := dec.Decode(&doc); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		out := filepath.Join(t.TempDir(), filepath.Base(path))
		if err := doc.WriteFile(out); err != nil {
			t.Fatal(err)
		}
		if written, err := os.ReadFile(out); err != nil || !bytes.Equal(written, committed) {
			t.Errorf("%s: WriteFile does not reproduce the committed file (err %v)", path, err)
		}
	}
}
