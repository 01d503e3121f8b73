// Package ftrepair is a cost-based, fault-tolerant data-repairing library,
// reproducing "A Novel Cost-Based Model for Data Repairing" (Hao, Tang, Li,
// He, Ta, Feng — ICDE/TKDE 2017).
//
// Given a relation and a set of functional dependencies, the library
// detects fault-tolerant (similarity-based) violations and computes a
// minimum-cost, closed-world repair: every repaired projection is a value
// combination that already occurs in the data, chosen through maximal
// independent sets of the per-FD violation graphs.
//
// Quick start:
//
//	rel, _ := ftrepair.ReadCSV(f, "string,string")
//	phi := ftrepair.MustParseFD(rel.Schema, "City -> State")
//	set, _ := ftrepair.NewSet([]*ftrepair.FD{phi}, 0.3)
//	cfg, _ := ftrepair.NewDistConfig(rel, 0.7, 0.3)
//	res, _ := ftrepair.Repair(rel, set, cfg, ftrepair.GreedyM, ftrepair.Options{})
//	// res.Repaired is FT-consistent and shares unchanged rows with rel
//	// (read-only; Clone to edit); res.Changed lists modified cells.
//
// The five algorithms of the paper are available through the Algorithm
// enum: ExactS and GreedyS for a single FD (the exact one solves an NP-hard
// problem and is exponential in the worst case), ExactM, ApproM and GreedyM
// for FD sets. Conditional functional dependencies repair through
// RepairCFD. Streaming appends go through NewIncremental, the sharded
// engine behind repaird sessions: each appended batch reruns the chosen
// algorithm on the shards its rows touch.
package ftrepair

import (
	"io"

	"ftrepair/internal/dataset"
	"ftrepair/internal/dc"
	"ftrepair/internal/discover"
	"ftrepair/internal/fd"
	"ftrepair/internal/incr"
	"ftrepair/internal/ind"
	"ftrepair/internal/ledger"
	"ftrepair/internal/profile"
	"ftrepair/internal/repair"
	"ftrepair/internal/rules"
	"ftrepair/internal/server"
)

// ErrCanceled reports that a repair stopped early because Options.Cancel
// fired. The accompanying Result, when non-nil, is a partial repair: valid
// and measured, but not FT-consistent in general. Test with errors.Is.
var ErrCanceled = repair.ErrCanceled

// ErrEmptyJoin reports that a multi-FD repair (ExactM, ApproM, GreedyM)
// found no target for a component: its per-FD independent sets join into
// none. The error names the component's FDs and comes with no Result,
// since any repair of that component would not be valid. Test with
// errors.Is.
var ErrEmptyJoin = repair.ErrEmptyJoin

// Service-layer types re-exported from internal/server: an HTTP/JSON
// daemon (cmd/repaird) over the repair library with batch jobs, streaming
// sessions and operational endpoints.
type (
	// Server is the repair service behind an http.Handler.
	Server = server.Server
	// ServerConfig tunes the service (worker pool, queue depth, logging).
	ServerConfig = server.Config
	// JobSpec describes one batch repair job submitted to the service.
	JobSpec = server.JobSpec
	// SessionSpec describes one streaming repair session.
	SessionSpec = server.SessionSpec
)

// NewServer builds a repair service and starts its worker pool.
var NewServer = server.New

// Streaming repair, re-exported from internal/incr: the sharded engine
// behind repaird sessions. NewIncremental repairs the base relation in an
// initial flush (reason "init") and returns the engine; Append admits
// batches of rows. A shard is a connected component of the FT-violation
// links between patterns. Each flush reruns the chosen algorithm
// (IncrementalOptions.Algorithm, GreedyM by default) on every shard the
// batch touches, over the original values of all the shard's rows. So an
// appended row is not repaired on its own against the standing data, and
// a flush can rewrite rows that earlier flushes accepted
// (BatchResult.Rewritten). The output does not depend on how the rows
// were batched: it equals one flush over all the rows. For one FD under
// GreedyS that is one-shot GreedyS over all the rows; for several FDs it
// can differ from one-shot GreedyM, and score lower, because each shard
// searches targets among its own patterns only.
type (
	// Incremental is the streaming repair engine. Its methods are safe
	// for concurrent use; flushes run one at a time.
	Incremental = incr.Engine
	// IncrementalOptions configures NewIncremental: the per-shard
	// algorithm, shard workers, base repair options, trace and ledger.
	IncrementalOptions = incr.Options
	// BatchResult describes one flush.
	BatchResult = incr.BatchResult
	// RowResult is the outcome of one appended row.
	RowResult = incr.RowResult
)

// NewIncremental opens a streaming engine over base, repairing base in the
// initial flush when it is not FT-consistent; base itself is not modified.
var NewIncremental = incr.NewEngine

// Re-exported core types. They alias the internal implementations so that
// every method documented there is available on these names.
type (
	// Schema is an ordered, typed attribute list.
	Schema = dataset.Schema
	// Attribute is a named, typed column.
	Attribute = dataset.Attribute
	// Type is an attribute domain type (String or Numeric).
	Type = dataset.Type
	// Tuple is a row of cell values.
	Tuple = dataset.Tuple
	// Relation is an instance of a schema.
	Relation = dataset.Relation
	// Cell addresses one value in a relation.
	Cell = dataset.Cell
	// CSVOptions tunes CSV parsing (delimiter, comments, trimming).
	CSVOptions = dataset.CSVOptions
	// FD is a functional dependency X -> Y.
	FD = fd.FD
	// CFD is a conditional functional dependency.
	CFD = fd.CFD
	// Set is a set Σ of FDs with per-FD FT-violation thresholds.
	Set = fd.Set
	// DistConfig is the distance model: LHS/RHS weights and numeric spans.
	DistConfig = fd.DistConfig
	// TauOptions tunes automatic threshold selection.
	TauOptions = fd.TauOptions
	// Separation reports pattern-separation quality of an FD.
	Separation = fd.Separation
	// SeparationOptions tunes SeparationCheck.
	SeparationOptions = fd.SeparationOptions
	// Result reports a repair.
	Result = repair.Result
	// Options tunes the repair algorithms.
	Options = repair.Options
	// Violation describes one detected FT-violation.
	Violation = repair.Violation
	// CFDSet pairs conditional FDs with FT thresholds.
	CFDSet = repair.CFDSet
	// DiscoverOptions tunes approximate FD discovery.
	DiscoverOptions = discover.Options
	// DiscoveredFD is one discovery result with its g3 error and support.
	DiscoveredFD = discover.Result
	// DiscoverCFDOptions tunes constant-CFD discovery.
	DiscoverCFDOptions = discover.CFDOptions
	// DiscoveredCFD is one constant-CFD discovery result.
	DiscoveredCFD = discover.CFDResult
	// DC is a denial constraint (generalizing FDs with order, inequality
	// and similarity predicates).
	DC = dc.DC
	// DCViolation is one violating tuple pair of a denial constraint.
	DCViolation = dc.Violation
	// ColumnProfile is one attribute's statistics.
	ColumnProfile = profile.Column
	// EditingRule copies attributes from master data on a key match.
	EditingRule = rules.Rule
	// RuleEngine applies editing rules against a master relation.
	RuleEngine = rules.Engine
	// CertainFix is one applied rule-based fix.
	CertainFix = rules.Fix
	// IND is an inclusion dependency into a reference relation.
	IND = ind.IND
)

// Attribute type constants.
const (
	String  = dataset.String
	Numeric = dataset.Numeric
)

// Repair-ledger types re-exported from internal/ledger: the tamper-evident
// repair ledger with cell-level provenance. Attach a ledger via
// Options.Ledger; Commit batches events under Merkle roots chained into a
// run root, Prove produces inclusion proofs, and Undo replays a suffix of
// the event log backwards with per-cell verification.
type (
	// Ledger is the append-only, hash-chained repair event log.
	Ledger = ledger.Ledger
	// RepairEvent is one applied cell repair with its provenance.
	RepairEvent = ledger.RepairEvent
	// LedgerSink receives committed repair events (Options.Ledger).
	LedgerSink = ledger.Sink
	// LedgerProof is an inclusion proof for one event in its batch tree.
	LedgerProof = ledger.Proof
	// LedgerBatch summarizes one committed batch and its chained root.
	LedgerBatch = ledger.Batch
	// LedgerDump is a parsed JSONL ledger dump (self-verifying).
	LedgerDump = ledger.Dump
)

var (
	// NewLedger returns an empty ledger with a zero run root.
	NewLedger = ledger.New
	// UndoRepairs reverses the last n ledger events over a relation,
	// replay-verified cell by cell.
	UndoRepairs = ledger.Undo
	// ReadLedgerJSONL parses a dump written by Ledger.WriteJSONL.
	ReadLedgerJSONL = ledger.ReadJSONL
	// VerifyLedgerProof checks an inclusion proof against a batch root.
	VerifyLedgerProof = ledger.VerifyProof
	// LedgerEventHash is the canonical leaf hash of one event.
	LedgerEventHash = ledger.EventHash
)

// Construction helpers re-exported from the internal packages.
var (
	// NewSchema builds a schema from attributes.
	NewSchema = dataset.NewSchema
	// MustSchema is NewSchema that panics on error.
	MustSchema = dataset.MustSchema
	// Strings builds an all-string schema from attribute names.
	Strings = dataset.Strings
	// NewRelation builds an empty relation.
	NewRelation = dataset.NewRelation
	// FromRows builds a relation from raw rows.
	FromRows = dataset.FromRows
	// ReadCSV loads a relation from CSV (header row; optional type spec).
	ReadCSV = dataset.ReadCSV
	// ReadCSVOpts is ReadCSV with dialect options (delimiter, comments,
	// trimming).
	ReadCSVOpts = dataset.ReadCSVOpts
	// WriteCSV writes a relation as CSV.
	WriteCSV = dataset.WriteCSV
	// Diff lists the cells at which two aligned relations differ.
	Diff = dataset.Diff

	// ParseFD parses "Name: A,B -> C" into an FD.
	ParseFD = fd.Parse
	// MustParseFD is ParseFD that panics on error.
	MustParseFD = fd.MustParse
	// NewFD builds an FD from attribute name lists.
	NewFD = fd.New
	// ParseCFD parses "A -> B | const,_ ; ..." into a CFD.
	ParseCFD = fd.ParseCFD
	// NewSet pairs FDs with FT-violation thresholds.
	NewSet = fd.NewSet
	// NewDistConfig builds the distance model with explicit weights.
	NewDistConfig = fd.NewDistConfig
	// DefaultDistConfig uses the paper's default weights (0.5/0.5).
	DefaultDistConfig = fd.DefaultDistConfig
	// SelectTau picks a threshold with the paper's sudden-gap heuristic.
	SelectTau = fd.SelectTau
	// SeparationCheck vets an FD's pattern separation at a threshold.
	SeparationCheck = fd.SeparationCheck
	// Closure computes an attribute set's closure under FDs.
	Closure = fd.Closure
	// Implies reports logical implication of an FD by a set.
	Implies = fd.Implies
	// Redundant lists FDs implied by the rest of their set.
	Redundant = fd.Redundant
	// MinimalCover computes a minimal equivalent FD set.
	MinimalCover = fd.MinimalCover

	// Detect lists the FT-violations of a relation without repairing it.
	Detect = repair.Detect
	// NewCFDSet pairs CFDs with thresholds.
	NewCFDSet = repair.NewCFDSet
	// RepairCFDSet repairs a relation against a set of CFDs.
	RepairCFDSet = repair.RepairCFDSet
	// DetectCFDs lists classic CFD violations.
	DetectCFDs = repair.DetectCFDs
	// VerifyCFDs checks classic CFD satisfaction.
	VerifyCFDs = repair.VerifyCFDs
	// DiscoverFDs profiles a relation for minimal approximate FDs.
	DiscoverFDs = discover.FDs
	// DiscoverCFDs profiles a relation for constant conditional FDs.
	DiscoverCFDs = discover.CFDs

	// ParseDC parses a denial-constraint spec like
	// "t1.State = t2.State ; t1.Salary > t2.Salary ; t1.Rate < t2.Rate".
	ParseDC = dc.Parse
	// DetectDC lists every violating tuple pair of a DC set.
	DetectDC = dc.Detect
	// RepairDC resolves DC violations with the holistic baseline strategy.
	RepairDC = dc.Repair
	// DCConsistent reports whether a relation satisfies every DC.
	DCConsistent = dc.Consistent
	// DCFromFD expresses an FD as equivalent denial constraints.
	DCFromFD = dc.FromFDAll

	// ProfileColumns computes per-attribute statistics.
	ProfileColumns = profile.Columns
	// InferTypes infers attribute domain types from the data.
	InferTypes = profile.InferTypes
	// Retype applies inferred types to a relation's schema.
	Retype = profile.Retype
	// CandidateKeys lists unique single attributes and pairs.
	CandidateKeys = profile.CandidateKeys

	// NewEditingRule builds a master-data editing rule.
	NewEditingRule = rules.NewRule
	// NewRuleEngine indexes master data for a rule set.
	NewRuleEngine = rules.NewEngine
	// NewIND builds an inclusion dependency into a reference relation.
	NewIND = ind.New
	// VerifyFTConsistent checks FT-consistency of a repair.
	VerifyFTConsistent = repair.VerifyFTConsistent
	// VerifyValid checks closed-world validity of a repair.
	VerifyValid = repair.VerifyValid
)

// Algorithm selects one of the paper's repair algorithms.
type Algorithm = repair.Algorithm

// The five algorithms of the paper (Table 2).
const (
	// ExactS: expansion-based optimal repair for a single FD (§3.1).
	ExactS = repair.AlgoExactS
	// GreedyS: greedy repair for a single FD (§3.2).
	GreedyS = repair.AlgoGreedyS
	// ExactM: optimal repair for multiple FDs over joined maximal
	// independent sets (§4.2).
	ExactM = repair.AlgoExactM
	// ApproM: per-FD greedy repair joined into targets (§4.3).
	ApproM = repair.AlgoApproM
	// GreedyM: joint greedy repair with cross-FD synchronization (§4.4).
	GreedyM = repair.AlgoGreedyM
)

var (
	// Algorithms lists every available algorithm in presentation order.
	Algorithms = repair.Algorithms
	// Repair computes an FT-consistent, closed-world repair of rel w.r.t.
	// set using the chosen algorithm. The single-FD algorithms (ExactS,
	// GreedyS) require len(set.FDs) == 1. The input relation is never
	// modified. The result is copy-on-write: res.Repaired shares every
	// unchanged row with rel, so both are read-only; Clone either before
	// mutating it.
	Repair = repair.Run
	// RepairCFD repairs rel w.r.t. a single conditional functional
	// dependency with ExactS or GreedyS: the tuples matching the CFD's
	// pattern tableau are restricted, repaired against the embedded FD and
	// written back. Unconstrained tuples are untouched. (A set of pure-FD
	// constraints — all-wildcard tableaux — should use Repair with
	// ExactM/ApproM/GreedyM instead, which repairs them jointly.)
	RepairCFD = repair.RepairCFD
)

// ReadCSVFile is a small convenience for examples and tools: ReadCSV over
// an opened reader with a type spec.
func ReadCSVFile(r io.Reader, typeSpec string) (*Relation, error) {
	return dataset.ReadCSV(r, typeSpec)
}

// RepairWithMaster composes the two repair families the paper discusses as
// complementary (§2.3): the rule engine first applies its certain,
// master-data-backed fixes, then the cost-based algorithm repairs what the
// rules could not reach. The returned result is measured against the
// original relation; its Stats carry the count of certain fixes.
func RepairWithMaster(rel *Relation, engine *RuleEngine, set *Set, cfg *DistConfig, algo Algorithm, opts Options) (*Result, error) {
	prefixed, fixes := engine.Repair(rel)
	res, err := Repair(prefixed, set, cfg, algo, opts)
	if err != nil {
		return nil, err
	}
	changed, err := dataset.Diff(rel, res.Repaired)
	if err != nil {
		return nil, err
	}
	out := *res
	out.Changed = changed
	out.Cost = cfg.DatabaseCost(rel, res.Repaired)
	out.Stats["certainFixes"] = len(fixes)
	return &out, nil
}
