// Package ledger is the tamper-evident repair ledger: cell-level
// provenance for every repair the engine applies.
//
// Each applied cell write is recorded as a RepairEvent carrying the cell
// address, both values, the justifying evidence (the FD and violation edge
// for pattern repairs, the chosen join-target for multi-FD plan repairs),
// the per-cell cost delta, and a deterministic worker/batch identity. A
// batch of events commits atomically: events are sorted by cell address,
// assigned monotone sequence numbers, hashed canonically, and folded into a
// Merkle tree whose root chains onto the previous batches' roots to form
// the run root. Prove/VerifyProof produce and check inclusion proofs
// against a batch root without access to the other events, and the chained
// run root commits to the whole history — flipping any byte of any event
// changes it.
//
// Determinism mirrors the repo-wide bit-identical-output discipline: the
// sort by (row, col) is what makes roots independent of worker scheduling
// (concurrently repaired components emit events in arbitrary real-time
// order; the committed order never sees it), and the stable sort keeps
// repeated writes to one cell in apply order, which is what replay-verified
// undo depends on.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"ftrepair/internal/dataset"
	"ftrepair/internal/obs"
)

// HashSize is the size of every hash in the ledger (SHA-256).
const HashSize = sha256.Size

// Hash is one ledger hash: an event leaf, a Merkle node, or a chained root.
type Hash [HashSize]byte

// RepairEvent is one applied cell repair. Seq and Batch are assigned by
// Ledger.Commit; everything else is filled by the emitting algorithm.
type RepairEvent struct {
	// Seq is the monotone 1-based sequence number across the whole run;
	// Batch is the 0-based index of the commit that carried the event.
	Seq   uint64 `json:"seq"`
	Batch int    `json:"batch"`
	// Row/Col/Attr address the cell; Old and New are the values before and
	// after the write (Old is the value actually overwritten, so reverse
	// replay restores the exact prior state).
	Row  int    `json:"row"`
	Col  int    `json:"col"`
	Attr string `json:"attr,omitempty"`
	Old  string `json:"old"`
	New  string `json:"new"`
	// FD names the dependency that justified the repair; Algorithm the
	// algorithm that chose it. Multi-FD join repairs label FD with the
	// component's FD set.
	FD        string `json:"fd,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	// CostDelta is the per-cell repair distance RepairDist(col, Old, New) —
	// the Eq-4 cost contribution of this write.
	CostDelta float64 `json:"costDelta"`
	// EdgeFrom/EdgeTo/EdgeW/EdgeD describe the justifying violation edge of
	// a pattern repair: the excluded pattern, the chosen in-set neighbor it
	// repairs to, the edge's repair weight, and the violation distance.
	EdgeFrom string  `json:"edgeFrom,omitempty"`
	EdgeTo   string  `json:"edgeTo,omitempty"`
	EdgeW    float64 `json:"edgeW,omitempty"`
	EdgeD    float64 `json:"edgeD,omitempty"`
	// TargetCols/Target carry the chosen join-target of a multi-FD plan
	// repair (the §5 target-tree assignment the cell was rewritten to).
	TargetCols []int    `json:"targetCols,omitempty"`
	Target     []string `json:"target,omitempty"`
	// Worker is the deterministic lane that produced the event: the
	// FD-component index for one-shot repairs, the shard ordinal for
	// incremental batches. Never a scheduling identity — roots must not
	// depend on goroutine interleaving.
	Worker int `json:"worker,omitempty"`
}

// Domain-separation prefixes: leaves, interior Merkle nodes, and the batch
// chain hash each live in their own preimage space.
const (
	tagLeaf  = 0x00
	tagNode  = 0x01
	tagChain = 0x02
)

// eventHasher canonically encodes an event into a SHA-256 state, counting
// the bytes written so Commit can report ledger growth without a second
// serialization.
type eventHasher struct {
	buf []byte
	n   int
}

func (w *eventHasher) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
	w.n += 8
}

func (w *eventHasher) i64(v int) { w.u64(uint64(int64(v))) }

func (w *eventHasher) f64(v float64) {
	// Bit pattern, not text: the encoding must be injective, and the
	// pipeline's determinism discipline guarantees bitwise-equal floats for
	// equal computations.
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	w.buf = append(w.buf, b[:]...)
	w.n += 8
}

func (w *eventHasher) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
	w.n += len(s)
}

// EventHash returns the canonical hash of e: a fixed-order, length-prefixed
// encoding of every field under the leaf domain tag. Any field change —
// including Seq and Batch, so replayed or reordered events never collide —
// changes the hash.
func EventHash(e *RepairEvent) Hash {
	h, _ := eventHashSize(e)
	return h
}

// eventHashSize hashes e and reports the canonical encoding size.
func eventHashSize(e *RepairEvent) (Hash, int) {
	w := eventHasher{buf: make([]byte, 1, 256)}
	w.buf[0] = tagLeaf
	w.n = 1
	w.u64(e.Seq)
	w.i64(e.Batch)
	w.i64(e.Row)
	w.i64(e.Col)
	w.str(e.Attr)
	w.str(e.Old)
	w.str(e.New)
	w.str(e.FD)
	w.str(e.Algorithm)
	w.f64(e.CostDelta)
	w.str(e.EdgeFrom)
	w.str(e.EdgeTo)
	w.f64(e.EdgeW)
	w.f64(e.EdgeD)
	w.i64(len(e.TargetCols))
	for _, c := range e.TargetCols {
		w.i64(c)
	}
	w.i64(len(e.Target))
	for _, v := range e.Target {
		w.str(v)
	}
	w.i64(e.Worker)
	return sha256.Sum256(w.buf), w.n
}

// nodeHash combines two Merkle children under the interior-node tag.
func nodeHash(l, r Hash) Hash {
	var b [1 + 2*HashSize]byte
	b[0] = tagNode
	copy(b[1:], l[:])
	copy(b[1+HashSize:], r[:])
	return sha256.Sum256(b[:])
}

// chainHash folds one batch root onto the previous run root.
func chainHash(prev, batchRoot Hash) Hash {
	var b [1 + 2*HashSize]byte
	b[0] = tagChain
	copy(b[1:], prev[:])
	copy(b[1+HashSize:], batchRoot[:])
	return sha256.Sum256(b[:])
}

// MerkleRoot folds leaf hashes bottom-up. Odd nodes carry up unchanged
// (Certificate-Transparency style), so a single leaf's root is the leaf
// itself and no hash is ever paired with a duplicate of itself.
func MerkleRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	level := append([]Hash(nil), leaves...)
	for len(level) > 1 {
		next := level[: 0 : len(level)/2+1]
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, nodeHash(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// ProofStep is one sibling on an inclusion path. Left reports the sibling's
// side: true means the sibling hashes on the left of the running value.
type ProofStep struct {
	Hash Hash `json:"hash"`
	Left bool `json:"left"`
}

// Proof is an inclusion proof for one leaf of a batch tree. It carries
// everything VerifyProof needs besides the leaf and the root, so a proof is
// independently checkable offline.
type Proof struct {
	Index int         `json:"index"`
	Steps []ProofStep `json:"steps"`
}

// merkleProve builds the inclusion proof for leaves[i].
func merkleProve(leaves []Hash, i int) Proof {
	p := Proof{Index: i}
	level := append([]Hash(nil), leaves...)
	for len(level) > 1 {
		if sib := i ^ 1; sib < len(level) {
			p.Steps = append(p.Steps, ProofStep{Hash: level[sib], Left: sib < i})
		}
		next := level[: 0 : len(level)/2+1]
		for j := 0; j+1 < len(level); j += 2 {
			next = append(next, nodeHash(level[j], level[j+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		i /= 2
	}
	return p
}

// VerifyProof folds leaf up p's sibling path and compares against root. It
// is a pure function of its arguments — no registry, no ledger state — so
// third parties can check proofs from a dumped ledger alone.
func VerifyProof(leaf Hash, p Proof, root Hash) bool {
	h := leaf
	for _, s := range p.Steps {
		if s.Left {
			h = nodeHash(s.Hash, h)
		} else {
			h = nodeHash(h, s.Hash)
		}
	}
	return h == root
}

// Batch summarizes one committed batch: its events' position in the run
// and its Merkle root chained onto the run root so far.
type Batch struct {
	Index int `json:"index"`
	// Start is the offset of the batch's first event in Ledger.Events();
	// Count its event count. Seq of event k of the batch is Start+k+1.
	Start int `json:"start"`
	Count int `json:"count"`
	// Root is the Merkle root over the batch's event hashes; RunRoot the
	// chained root after this batch: H(tag ‖ prevRunRoot ‖ Root).
	Root    Hash `json:"root"`
	RunRoot Hash `json:"runRoot"`
}

// Sink receives committed repair events. Ledger is the canonical
// implementation; Buffer collects without committing (the incremental
// engine's inner repairs feed one). Event slices passed to Commit are owned
// by the sink afterwards.
type Sink interface {
	Commit(events []RepairEvent)
}

// Ledger is an append-only, hash-chained event log. Safe for concurrent
// use; each Commit is atomic.
type Ledger struct {
	mu      sync.Mutex
	events  []RepairEvent
	batches []Batch
	root    Hash
	bytes   int
}

// New returns an empty ledger with a zero run root.
func New() *Ledger { return &Ledger{} }

// Commit appends one batch: events are stable-sorted by (Row, Col) —
// making the committed order independent of the emitters' scheduling while
// preserving apply order per cell — assigned Seq/Batch, hashed, and folded
// into a Merkle tree whose root chains onto the run root. Empty batches are
// no-ops (a repair that changed nothing leaves no trace to tamper with).
// The flushed totals land in the obs registry once per commit.
func (l *Ledger) Commit(events []RepairEvent) {
	if len(events) == 0 {
		return
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Row != events[j].Row {
			return events[i].Row < events[j].Row
		}
		return events[i].Col < events[j].Col
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	b := Batch{Index: len(l.batches), Start: len(l.events), Count: len(events)}
	leaves := make([]Hash, len(events))
	bytes := 0
	for i := range events {
		events[i].Seq = uint64(b.Start+i) + 1
		events[i].Batch = b.Index
		var n int
		leaves[i], n = eventHashSize(&events[i])
		bytes += n
	}
	b.Root = MerkleRoot(leaves)
	b.RunRoot = chainHash(l.root, b.Root)
	l.root = b.RunRoot
	l.events = append(l.events, events...)
	l.batches = append(l.batches, b)
	l.bytes += bytes
	obs.Ledger.Events.AddInt(len(events))
	obs.Ledger.Batches.Inc()
	obs.Ledger.Bytes.AddInt(bytes)
}

// Len returns the number of committed events.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// RunRoot returns the chained root over every committed batch (zero for an
// empty ledger).
func (l *Ledger) RunRoot() Hash {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.root
}

// RunRootHex is RunRoot as lowercase hex.
func (l *Ledger) RunRootHex() string { r := l.RunRoot(); return fmt.Sprintf("%x", r[:]) }

// Events returns a copy of the committed events in Seq order.
func (l *Ledger) Events() []RepairEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]RepairEvent(nil), l.events...)
}

// Batches returns a copy of the committed batch summaries.
func (l *Ledger) Batches() []Batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Batch(nil), l.batches...)
}

// Prove returns the event with sequence number seq together with its
// inclusion proof and the containing batch. The proof verifies against the
// batch's Root via VerifyProof(EventHash(&event), proof, batch.Root).
func (l *Ledger) Prove(seq uint64) (RepairEvent, Proof, Batch, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 || seq > uint64(len(l.events)) {
		return RepairEvent{}, Proof{}, Batch{}, false
	}
	ev := l.events[seq-1]
	b := l.batches[ev.Batch]
	leaves := make([]Hash, b.Count)
	for i := 0; i < b.Count; i++ {
		leaves[i] = EventHash(&l.events[b.Start+i])
	}
	return ev, merkleProve(leaves, int(seq)-1-b.Start), b, true
}

// Undo reverses the last n committed events (every event when n <= 0) over
// rel, replay-verified: each event is undone newest-first, and the cell
// must still hold the event's New value before Old is restored — any
// mismatch means the relation diverged from the ledger's history (or the
// ledger was tampered with) and aborts with an error after bumping the
// verify-failure metric. rel is not modified; the reverted copy is
// returned. Undoing every event of a fully-ledgered run reproduces the
// pre-repair relation exactly.
func Undo(rel *dataset.Relation, events []RepairEvent, n int) (*dataset.Relation, error) {
	if n <= 0 || n > len(events) {
		n = len(events)
	}
	out := rel.Clone()
	for i := len(events) - 1; i >= len(events)-n; i-- {
		e := events[i]
		if e.Row < 0 || e.Row >= out.Len() || e.Col < 0 || e.Col >= len(out.Tuples[e.Row]) {
			obs.Ledger.VerifyFailures.Inc()
			return nil, fmt.Errorf("ledger: undo seq %d: cell (%d,%d) outside the relation", e.Seq, e.Row, e.Col)
		}
		if got := out.Tuples[e.Row][e.Col]; got != e.New {
			obs.Ledger.VerifyFailures.Inc()
			return nil, fmt.Errorf("ledger: undo seq %d: cell (%d,%d) holds %q, ledger recorded %q", e.Seq, e.Row, e.Col, got, e.New)
		}
		out.Tuples[e.Row][e.Col] = e.Old
	}
	return out, nil
}

// Buffer is a Sink that only collects. The incremental engine hands one to
// each inner shard repair and later re-addresses the events into engine
// coordinates before committing them to the real ledger; tests use it to
// observe emission without hashing.
type Buffer struct {
	mu     sync.Mutex
	events []RepairEvent
}

// Commit implements Sink by appending.
func (b *Buffer) Commit(events []RepairEvent) {
	b.mu.Lock()
	b.events = append(b.events, events...)
	b.mu.Unlock()
}

// Add appends a single event.
func (b *Buffer) Add(e RepairEvent) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Events returns a copy of the collected events in arrival order.
func (b *Buffer) Events() []RepairEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]RepairEvent(nil), b.events...)
}

// Drain returns the collected events and resets the buffer.
func (b *Buffer) Drain() []RepairEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.events
	b.events = nil
	return out
}

// Len returns the number of collected events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}
