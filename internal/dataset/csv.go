package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// CSVOptions tunes CSV parsing beyond the defaults.
type CSVOptions struct {
	// Comma is the field delimiter (default ',').
	Comma rune
	// Comment, when non-zero, makes lines starting with it skipped.
	Comment rune
	// TrimSpace trims surrounding whitespace from every cell.
	TrimSpace bool
}

// ReadCSV loads a relation from CSV data. The first record is the header.
// Attribute types are given by typeSpec, a comma-separated list aligned with
// the header such as "string,string,numeric"; an empty typeSpec makes every
// attribute a string. Numeric cells must parse as finite float64 values
// (empty cells are nulls and allowed).
func ReadCSV(r io.Reader, typeSpec string) (*Relation, error) {
	return ReadCSVOpts(r, typeSpec, CSVOptions{})
}

// ReadCSVOpts is ReadCSV with dialect options.
func ReadCSVOpts(r io.Reader, typeSpec string, opts CSVOptions) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	if opts.Comment != 0 {
		cr.Comment = opts.Comment
	}
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	types, err := parseTypeSpec(typeSpec, len(header))
	if err != nil {
		return nil, err
	}
	attrs := make([]Attribute, len(header))
	for i, name := range header {
		attrs[i] = Attribute{Name: strings.TrimSpace(name), Type: types[i]}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	// encoding/csv backs every field of a record with one string, so a
	// stored cell would keep its whole line alive. Each column keeps one
	// clone per distinct value instead.
	seen := make([]map[string]string, len(header))
	for i := range seen {
		seen[i] = make(map[string]string)
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: CSV line %d has %d fields, header has %d", line, len(rec), len(header))
		}
		for i, v := range rec {
			if opts.TrimSpace {
				v = strings.TrimSpace(v)
			}
			u, ok := seen[i][v]
			if !ok {
				u = strings.Clone(v)
				seen[i][u] = u
			}
			rec[i] = u
		}
		if err := rel.Append(Tuple(rec)); err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
	}
	return rel, nil
}

func parseTypeSpec(spec string, n int) ([]Type, error) {
	types := make([]Type, n)
	if spec == "" {
		return types, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("dataset: type spec has %d entries, header has %d columns", len(parts), n)
	}
	for i, p := range parts {
		switch strings.TrimSpace(strings.ToLower(p)) {
		case "string", "str", "s", "":
			types[i] = String
		case "numeric", "num", "n", "float", "int":
			types[i] = Numeric
		default:
			return nil, fmt.Errorf("dataset: unknown type %q in type spec", p)
		}
	}
	return types, nil
}

// WriteCSV writes the relation as CSV with a header row.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	for i, t := range r.Tuples {
		if err := cw.Write(t); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseFloat parses a numeric cell. It is the single parsing point used by
// the relation and the distance code so behaviour stays consistent. NaN
// and ±Inf are refused: no span or distance can be taken from them.
func ParseFloat(v string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return 0, fmt.Errorf("dataset: %q is not a finite number", v)
	}
	return f, err
}
