package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"ftrepair"
	"ftrepair/internal/gen"
)

// instance is one generated input: the dirty relation the program sees and
// the generator's ground truth, row-aligned.
type instance struct {
	name  string
	clean *ftrepair.Relation
	dirty *ftrepair.Relation
	fds   []*ftrepair.FD
	csv   []byte
	types string
}

// newInstance dirties clean at rate e over fds with the repo's noise-seed
// convention (generator seed + 1) and renders the dirty CSV the program
// receives, with its type spec. A non-zero shuffle permutes the rows of
// both relations alike.
func newInstance(name string, clean *ftrepair.Relation, fds []*ftrepair.FD, rate float64, noiseSeed, shuffle int64) (*instance, error) {
	dirty, _ := gen.Inject(clean, fds, rate, noiseSeed)
	if shuffle != 0 {
		clean, dirty = clean.Clone(), dirty.Clone()
		rng := rand.New(rand.NewSource(shuffle))
		rng.Shuffle(len(dirty.Tuples), func(i, j int) {
			clean.Tuples[i], clean.Tuples[j] = clean.Tuples[j], clean.Tuples[i]
			dirty.Tuples[i], dirty.Tuples[j] = dirty.Tuples[j], dirty.Tuples[i]
		})
	}
	var buf bytes.Buffer
	if err := ftrepair.WriteCSV(&buf, dirty); err != nil {
		return nil, fmt.Errorf("rendering %s: %w", name, err)
	}
	return &instance{name: name, clean: clean, dirty: dirty, fds: fds, csv: buf.Bytes(), types: typeSpec(dirty)}, nil
}

// parse reads a CSV with the instance's type spec, as the program does.
func (inst *instance) parse(csv string) (*ftrepair.Relation, error) {
	return ftrepair.ReadCSV(strings.NewReader(csv), inst.types)
}

// typeSpec declares the generator's attribute types, except that a numeric
// column the noise wrote a non-number into is declared a string: Tax typos
// put letters into numeric FD columns, and the program rejects a numeric
// declaration it cannot parse.
func typeSpec(rel *ftrepair.Relation) string {
	parts := make([]string, rel.Schema.Len())
	for c := range parts {
		parts[c] = "string"
		if rel.Schema.Attr(c).Type != ftrepair.Numeric {
			continue
		}
		parts[c] = "numeric"
		for _, t := range rel.Tuples {
			if _, err := strconv.ParseFloat(t[c], 64); err != nil {
				parts[c] = "string"
				break
			}
		}
	}
	return strings.Join(parts, ",")
}

// fdSpec renders an FD in the form the job spec parser reads
// ("h1: Provider -> HospitalName"); FD.String brackets attribute lists,
// which the parser rejects.
func fdSpec(f *ftrepair.FD) string {
	names := func(cols []int) string {
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = f.Schema.Attr(c).Name
		}
		return strings.Join(out, ",")
	}
	return fmt.Sprintf("%s: %s -> %s", f.Name, names(f.LHS), names(f.RHS))
}

func fdSpecs(fds []*ftrepair.FD) []string {
	out := make([]string, len(fds))
	for i, f := range fds {
		out[i] = fdSpec(f)
	}
	return out
}

// reparse binds FD specs to another schema instance (the one a parsed CSV
// carries), so the benchmark's checks use exactly the FDs the program got.
func reparse(schema *ftrepair.Schema, fds []*ftrepair.FD) ([]*ftrepair.FD, error) {
	out := make([]*ftrepair.FD, len(fds))
	for i, f := range fds {
		g, err := ftrepair.ParseFD(schema, fdSpec(f))
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// digest fingerprints a relation's CSV rendering.
func digest(rel *ftrepair.Relation) string {
	h := sha256.New()
	if err := ftrepair.WriteCSV(h, rel); err != nil {
		return "unrenderable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quality accumulates §6.1 precision and recall: a repaired cell is correct
// when its new value is the ground truth; recall divides the correct
// repairs by the injected errors.
type quality struct {
	repaired, correct, errors int
}

// add scores one repair of dirty against clean, cell by cell; all three
// must be row-aligned (their declared types may differ).
func (q *quality) add(clean, dirty, repaired *ftrepair.Relation) error {
	if repaired.Len() != dirty.Len() || clean.Len() != dirty.Len() {
		return fmt.Errorf("scoring: %d repaired rows for %d input rows", repaired.Len(), dirty.Len())
	}
	for i, t := range dirty.Tuples {
		for c, v := range t {
			truth, got := clean.Tuples[i][c], repaired.Tuples[i][c]
			if v != truth {
				q.errors++
			}
			if got != v {
				q.repaired++
				if got == truth {
					q.correct++
				}
			}
		}
	}
	return nil
}

func (q *quality) merge(o quality) {
	q.repaired += o.repaired
	q.correct += o.correct
	q.errors += o.errors
}

func (q quality) precision() float64 {
	if q.repaired == 0 {
		return 1
	}
	return float64(q.correct) / float64(q.repaired)
}

func (q quality) recall() float64 {
	if q.errors == 0 {
		return 1
	}
	return float64(q.correct) / float64(q.errors)
}

// verifyRepair runs the paper's two output checks against the FDs the
// program was given: the repair is FT-consistent and every repaired
// projection occurs in the input.
func verifyRepair(orig, repaired *ftrepair.Relation, fds []*ftrepair.FD, tau, wl, wr float64) error {
	bound, err := reparse(orig.Schema, fds)
	if err != nil {
		return err
	}
	set, err := ftrepair.NewSet(bound, tau)
	if err != nil {
		return err
	}
	cfg, err := ftrepair.NewDistConfig(orig, wl, wr)
	if err != nil {
		return err
	}
	if err := ftrepair.VerifyFTConsistent(repaired, set, cfg); err != nil {
		return err
	}
	return ftrepair.VerifyValid(orig, repaired, set)
}
