package profile_test

import (
	"fmt"
	"reflect"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/gen"
	"ftrepair/internal/profile"
)

func fixture(t *testing.T) *dataset.Relation {
	t.Helper()
	rel, err := dataset.FromRows(dataset.Strings("ID", "City", "Score", "Note"), [][]string{
		{"1", "Boston", "85", "fine"},
		{"2", "Boston", "90", ""},
		{"3", "Albany", "77.5", "ok"},
		{"4", "Albany", "n/a", "ok"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestColumns(t *testing.T) {
	cols := profile.Columns(fixture(t))
	if len(cols) != 4 {
		t.Fatalf("columns = %d", len(cols))
	}
	id := cols[0]
	if !id.IsKey || id.Distinct != 4 || id.Inferred != dataset.Numeric {
		t.Fatalf("ID profile = %+v", id)
	}
	city := cols[1]
	if city.IsKey || city.Distinct != 2 || city.MaxMult != 2 || city.Inferred != dataset.String {
		t.Fatalf("City profile = %+v", city)
	}
	if city.MinLen != 6 || city.MaxLen != 6 {
		t.Fatalf("City lengths = %+v", city)
	}
	// Score: 3 of 4 parse — below the 0.95 threshold, stays string.
	if cols[2].Inferred != dataset.String {
		t.Fatalf("Score inferred %v despite n/a", cols[2].Inferred)
	}
	note := cols[3]
	if note.Nulls != 1 || note.Distinct != 2 {
		t.Fatalf("Note profile = %+v", note)
	}
}

func TestInferTypesAndRetype(t *testing.T) {
	rel := fixture(t)
	types := profile.InferTypes(rel)
	want := []dataset.Type{dataset.Numeric, dataset.String, dataset.String, dataset.String}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("InferTypes = %v", types)
	}
	retyped := profile.Retype(rel)
	if retyped.Schema.Attr(0).Type != dataset.Numeric {
		t.Fatal("Retype did not apply the inferred type")
	}
	if retyped == rel {
		t.Fatal("Retype returned the original despite changes")
	}
	// Idempotent when nothing changes.
	again := profile.Retype(retyped)
	if again != retyped {
		t.Fatal("Retype copied without changes")
	}
	// Data preserved.
	cells, err := dataset.Diff(&dataset.Relation{Schema: rel.Schema, Tuples: rel.Tuples}, &dataset.Relation{Schema: rel.Schema, Tuples: retyped.Tuples})
	if err != nil || len(cells) != 0 {
		t.Fatalf("Retype changed data: %v %v", cells, err)
	}
}

func TestCandidateKeys(t *testing.T) {
	rel, err := dataset.FromRows(dataset.Strings("A", "B", "C"), [][]string{
		{"1", "x", "p"},
		{"2", "x", "q"},
		{"3", "y", "p"},
		{"4", "y", "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := profile.CandidateKeys(rel)
	// A is a key; (B,C) is a composite key; (A,B) etc. not reported since
	// A alone is a key.
	want := [][]int{{0}, {1, 2}}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("CandidateKeys = %v, want %v", keys, want)
	}
	empty := dataset.NewRelation(dataset.Strings("A"))
	if got := profile.CandidateKeys(empty); got != nil {
		t.Fatalf("empty relation keys = %v", got)
	}
}

func TestProfileOnWorkload(t *testing.T) {
	rel := gen.HOSP{Seed: 41}.Generate(500)
	cols := profile.Columns(rel)
	byName := map[string]profile.Column{}
	for _, c := range cols {
		byName[c.Name] = c
	}
	if byName["Score"].Inferred != dataset.Numeric || byName["Sample"].Inferred != dataset.Numeric {
		t.Fatal("numeric workload columns not inferred")
	}
	if byName["City"].Inferred != dataset.String {
		t.Fatal("City inferred numeric")
	}
	if byName["Provider"].IsKey {
		t.Fatal("Provider marked key despite repeats")
	}
}

func TestIdentifierShapedStaysString(t *testing.T) {
	rel, err := dataset.FromRows(dataset.Strings("Zip", "Amount"), [][]string{
		{"02134", "12"},
		{"10001", "9.5"},
		{"60601", "140"},
	})
	if err != nil {
		t.Fatal(err)
	}
	types := profile.InferTypes(rel)
	if types[0] != dataset.String {
		t.Fatal("fixed-width digit identifier inferred numeric")
	}
	if types[1] != dataset.Numeric {
		t.Fatal("variable-width amounts not inferred numeric")
	}
}

// TestIdentifierShapedToleratesTypos holds the majority-width rule: a
// digit column is an identifier when one width of at least 3 fills
// NumericThreshold of its non-empty cells, so a typo that inserts a digit
// does not turn it numeric, while integers of mixed widths stay numeric.
func TestIdentifierShapedToleratesTypos(t *testing.T) {
	var zip, code, amount [][]string
	for i := 0; i < 40; i++ {
		zip = append(zip, []string{fmt.Sprintf("%05d", 1000+i*937)})
		code = append(code, []string{fmt.Sprintf("%03d", 200+i*17)})
		amount = append(amount, []string{fmt.Sprint([]int{7, 42, 650, 1200}[i%4] + i)})
	}
	zip[3][0] = "021345"            // one inserted digit
	zip = append(zip, []string{""}) // empty cells do not count
	for _, c := range []struct {
		name string
		rows [][]string
		want dataset.Type
	}{
		{"zip with one inserted digit", zip, dataset.String},
		{"3-digit code", code, dataset.String},
		{"mixed-width integers", amount, dataset.Numeric},
	} {
		rel, err := dataset.FromRows(dataset.Strings("A"), c.rows)
		if err != nil {
			t.Fatal(err)
		}
		if got := profile.InferTypes(rel)[0]; got != c.want {
			t.Errorf("%s: inferred %v, want %v", c.name, got, c.want)
		}
	}
}
