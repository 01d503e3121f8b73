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
// RepairCFD.
package ftrepair

import (
	"fmt"
	"io"

	"ftrepair/internal/dataset"
	"ftrepair/internal/dc"
	"ftrepair/internal/discover"
	"ftrepair/internal/fd"
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
	// Incremental maintains FT-consistency as tuples are appended.
	Incremental = repair.Incremental
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
	// NewIncremental builds append-time repair state over a consistent
	// relation.
	NewIncremental = repair.NewIncremental
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
type Algorithm string

// The five algorithms of the paper (Table 2).
const (
	// ExactS: expansion-based optimal repair for a single FD (§3.1).
	ExactS Algorithm = "ExactS"
	// GreedyS: greedy repair for a single FD (§3.2).
	GreedyS Algorithm = "GreedyS"
	// ExactM: optimal repair for multiple FDs over joined maximal
	// independent sets (§4.2).
	ExactM Algorithm = "ExactM"
	// ApproM: per-FD greedy repair joined into targets (§4.3).
	ApproM Algorithm = "ApproM"
	// GreedyM: joint greedy repair with cross-FD synchronization (§4.4).
	GreedyM Algorithm = "GreedyM"
)

// Algorithms lists every available algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{ExactS, GreedyS, ExactM, ApproM, GreedyM}
}

// Repair computes an FT-consistent, closed-world repair of rel w.r.t. set
// using the chosen algorithm. The single-FD algorithms (ExactS, GreedyS)
// require len(set.FDs) == 1. The input relation is never modified. The
// result is copy-on-write: res.Repaired shares every unchanged row with
// rel, so both are read-only; Clone either before mutating it.
func Repair(rel *Relation, set *Set, cfg *DistConfig, algo Algorithm, opts Options) (*Result, error) {
	switch algo {
	case ExactS, GreedyS:
		if len(set.FDs) != 1 {
			return nil, fmt.Errorf("ftrepair: %s repairs a single FD, set has %d", algo, len(set.FDs))
		}
		if algo == ExactS {
			return repair.ExactS(rel, set.FDs[0], cfg, set.Tau[0], opts)
		}
		return repair.GreedyS(rel, set.FDs[0], cfg, set.Tau[0], opts)
	case ExactM:
		return repair.ExactM(rel, set, cfg, opts)
	case ApproM:
		return repair.ApproM(rel, set, cfg, opts)
	case GreedyM:
		return repair.GreedyM(rel, set, cfg, opts)
	default:
		return nil, fmt.Errorf("ftrepair: unknown algorithm %q", algo)
	}
}

// RepairCFD repairs rel w.r.t. a single conditional functional dependency:
// the tuples matching the CFD's pattern tableau are restricted, repaired
// against the embedded FD with the chosen single-FD algorithm, and written
// back. Unconstrained tuples are untouched. (A set of pure-FD constraints —
// all-wildcard tableaux — should use Repair with ExactM/ApproM/GreedyM
// instead, which repairs them jointly.)
func RepairCFD(rel *Relation, c *CFD, cfg *DistConfig, tau float64, algo Algorithm, opts Options) (*Result, error) {
	if algo != ExactS && algo != GreedyS {
		return nil, fmt.Errorf("ftrepair: RepairCFD supports ExactS or GreedyS, got %q", algo)
	}
	return repair.RepairCFD(rel, c, cfg, tau, algo == ExactS, opts)
}

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
