package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Attribute{Name: "A"}, Attribute{Name: "A"}); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := NewSchema(Attribute{Name: ""}); err == nil {
		t.Fatal("empty attribute name accepted")
	}
	s, err := NewSchema(Attribute{Name: "A"}, Attribute{Name: "B", Type: Numeric})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if i, ok := s.Index("B"); !ok || i != 1 {
		t.Fatalf("Index(B) = %d,%v, want 1,true", i, ok)
	}
	if _, ok := s.Index("C"); ok {
		t.Fatal("Index(C) found nonexistent attribute")
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("Names = %v", got)
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex did not panic on unknown attribute")
		}
	}()
	Strings("A").MustIndex("Z")
}

func TestIndices(t *testing.T) {
	s := Strings("A", "B", "C")
	got, err := s.Indices("C", "A")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("Indices = %v", got)
	}
	if _, err := s.Indices("C", "Z"); err == nil {
		t.Fatal("Indices accepted unknown attribute")
	}
}

func TestTypeString(t *testing.T) {
	if String.String() != "string" || Numeric.String() != "numeric" {
		t.Fatal("Type.String mismatch")
	}
	if Type(9).String() != "Type(9)" {
		t.Fatalf("Type(9).String() = %q", Type(9).String())
	}
}

func TestAppendValidation(t *testing.T) {
	s := MustSchema(Attribute{Name: "A"}, Attribute{Name: "N", Type: Numeric})
	r := NewRelation(s)
	if err := r.Append(Tuple{"x"}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := r.Append(Tuple{"x", "abc"}); err == nil {
		t.Fatal("non-numeric cell accepted")
	}
	if err := r.Append(Tuple{"x", "3.5"}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestTupleKeyUniqueSeparation(t *testing.T) {
	// Keys must not confuse ("ab","c") with ("a","bc").
	t1 := Tuple{"ab", "c"}
	t2 := Tuple{"a", "bc"}
	cols := []int{0, 1}
	if t1.Key(cols) == t2.Key(cols) {
		t.Fatal("distinct projections produced equal keys")
	}
	if t1.Key(nil) != "" {
		t.Fatal("empty projection key not empty")
	}
	if t1.Key([]int{1}) != "c" {
		t.Fatal("single-column key mismatch")
	}
}

func TestTupleKeyEqualsIffProjectionEqual(t *testing.T) {
	f := func(a, b [3]string, pick uint8) bool {
		ta := Tuple{a[0], a[1], a[2]}
		tb := Tuple{b[0], b[1], b[2]}
		cols := []int{int(pick % 3), int((pick / 3) % 3)}
		eq := ta[cols[0]] == tb[cols[0]] && ta[cols[1]] == tb[cols[1]]
		return (ta.Key(cols) == tb.Key(cols)) == eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProjectAndClone(t *testing.T) {
	tp := Tuple{"a", "b", "c"}
	if got := tp.Project([]int{2, 0}); !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Fatalf("Project = %v", got)
	}
	c := tp.Clone()
	c[0] = "z"
	if tp[0] != "a" {
		t.Fatal("Clone aliases original")
	}
}

func TestActiveDomain(t *testing.T) {
	s := Strings("A")
	r, err := FromRows(s, [][]string{{"b"}, {"a"}, {"b"}, {"c"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ActiveDomain(0); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("ActiveDomain = %v", got)
	}
}

func TestNumericRange(t *testing.T) {
	s := MustSchema(Attribute{Name: "N", Type: Numeric}, Attribute{Name: "S"})
	r, err := FromRows(s, [][]string{{"3", "x"}, {"-1", "y"}, {"7", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	min, max, ok := r.NumericRange(0)
	if !ok || min != -1 || max != 7 {
		t.Fatalf("NumericRange = %v,%v,%v", min, max, ok)
	}
	if _, _, ok := r.NumericRange(1); ok {
		t.Fatal("NumericRange succeeded on string attribute")
	}
	empty := NewRelation(s)
	if _, _, ok := empty.NumericRange(0); ok {
		t.Fatal("NumericRange succeeded on empty relation")
	}
}

// TestNumericRangeSkipsNullsAndNonFinite ranges over the cells that parse
// to finite numbers only: a leading null must not pin min or max at 0, and
// NaN or ±Inf cannot enter a relation or a span.
func TestNumericRangeSkipsNullsAndNonFinite(t *testing.T) {
	s := MustSchema(Attribute{Name: "N", Type: Numeric})
	for _, tc := range []struct {
		cells    []string
		min, max float64
		ok       bool
	}{
		{[]string{"", "5", "7"}, 5, 7, true},
		{[]string{"", "-5", "-7"}, -7, -5, true},
		{[]string{"5", "", "7"}, 5, 7, true},
		{[]string{"", ""}, 0, 0, false},
		{nil, 0, 0, false},
	} {
		r := NewRelation(s)
		for _, c := range tc.cells {
			if err := r.Append(Tuple{c}); err != nil {
				t.Fatalf("%q: %v", tc.cells, err)
			}
		}
		if min, max, ok := r.NumericRange(0); min != tc.min || max != tc.max || ok != tc.ok {
			t.Fatalf("%q: NumericRange = %v, %v, %v; want %v, %v, %v", tc.cells, min, max, ok, tc.min, tc.max, tc.ok)
		}
	}
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e400"} {
		if err := NewRelation(s).Append(Tuple{v}); err == nil {
			t.Errorf("Append accepted %q in a numeric column", v)
		}
		if f, err := ParseFloat(" " + v); err == nil {
			t.Errorf("ParseFloat(%q) = %v, want an error", v, f)
		}
	}
	// A non-finite cell written past Append does not reach the span.
	if _, err := FromRows(s, [][]string{{"NaN"}, {"2"}, {"+Inf"}, {"4"}}); err == nil {
		t.Fatal("FromRows accepted non-finite cells")
	}
	r := NewRelation(s)
	r.Tuples = []Tuple{{"NaN"}, {"2"}, {"+Inf"}, {"4"}}
	if min, max, ok := r.NumericRange(0); min != 2 || max != 4 || !ok {
		t.Fatalf("NumericRange over NaN and Inf cells = %v, %v, %v; want 2, 4, true", min, max, ok)
	}
}

func TestCloneAndCells(t *testing.T) {
	r, err := FromRows(Strings("A", "B"), [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	c.Set(Cell{Row: 1, Col: 0}, "x")
	if r.Get(Cell{Row: 1, Col: 0}) != "3" {
		t.Fatal("Clone aliases tuples")
	}
	if c.Get(Cell{Row: 1, Col: 0}) != "x" {
		t.Fatal("Set did not stick")
	}
}

func TestDiff(t *testing.T) {
	a, _ := FromRows(Strings("A", "B"), [][]string{{"1", "2"}, {"3", "4"}})
	b := a.Clone()
	b.Set(Cell{0, 1}, "x")
	b.Set(Cell{1, 0}, "y")
	cells, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []Cell{{0, 1}, {1, 0}}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("Diff = %v, want %v", cells, want)
	}
	short, _ := FromRows(Strings("A", "B"), [][]string{{"1", "2"}})
	if _, err := Diff(a, short); err == nil {
		t.Fatal("Diff accepted different cardinalities")
	}
	other, _ := FromRows(Strings("A", "C"), [][]string{{"1", "2"}, {"3", "4"}})
	if _, err := Diff(a, other); err == nil {
		t.Fatal("Diff accepted different schemas")
	}
	same, _ := FromRows(Strings("A", "B"), [][]string{{"1", "2"}, {"3", "4"}})
	cells, err = Diff(a, same) // equal schemas by value, different pointers
	if err != nil || len(cells) != 0 {
		t.Fatalf("Diff on equal-valued schema = %v, %v", cells, err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := "A,N\nx,1\ny,2.5\n"
	r, err := ReadCSV(strings.NewReader(in), "string,numeric")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Schema.Attr(1).Type != Numeric {
		t.Fatalf("bad relation: len=%d", r.Len())
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	r2, err := ReadCSV(strings.NewReader(buf.String()), "string,numeric")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Diff(r, r2)
	if err != nil || len(cells) != 0 {
		t.Fatalf("round trip changed data: %v %v", cells, err)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), ""); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("A,B\nx\n"), ""); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("A\nx\n"), "string,string"); err == nil {
		t.Fatal("mismatched type spec accepted")
	}
	if _, err := ReadCSV(strings.NewReader("A\nx\n"), "blob"); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := ReadCSV(strings.NewReader("A\nx\n"), "numeric"); err == nil {
		t.Fatal("non-numeric cell accepted for numeric column")
	}
}

func TestParseTypeSpecAliases(t *testing.T) {
	types, err := parseTypeSpec("s,STR,n,Float", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Type{String, String, Numeric, Numeric}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("parseTypeSpec = %v", types)
	}
}

func TestParseFloat(t *testing.T) {
	if v, err := ParseFloat(" 2.5 "); err != nil || v != 2.5 {
		t.Fatalf("ParseFloat = %v, %v", v, err)
	}
	if _, err := ParseFloat("x"); err == nil {
		t.Fatal("ParseFloat accepted garbage")
	}
}

func TestNumericNullsAllowed(t *testing.T) {
	s := MustSchema(Attribute{Name: "N", Type: Numeric})
	r := NewRelation(s)
	if err := r.Append(Tuple{""}); err != nil {
		t.Fatalf("empty numeric cell rejected: %v", err)
	}
	if err := r.Append(Tuple{"abc"}); err == nil {
		t.Fatal("garbage numeric cell accepted")
	}
}

func TestReadCSVOpts(t *testing.T) {
	in := "# a comment\nA;N\n x ;1\ny;2\n"
	rel, err := ReadCSVOpts(strings.NewReader(in), "string,numeric", CSVOptions{
		Comma:     ';',
		Comment:   '#',
		TrimSpace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || rel.Tuples[0][0] != "x" {
		t.Fatalf("relation: %v", rel.Tuples)
	}
	if rel.Schema.Attr(1).Type != Numeric {
		t.Fatal("type spec ignored")
	}
}

// TestReadCSVSharesEqualCells checks the reader's per-column interning:
// equal cells of one column share one string's storage, with and without
// TrimSpace, no cell points into its record's line, and the cell values
// are what the dialect says they are.
func TestReadCSVSharesEqualCells(t *testing.T) {
	long := "abcdefghijklmnopqrst" // 20 bytes: clones are 8-aligned, never 20 apart
	in := "A,B\nx, y\nx,y \n z,y\nx,w\n" + long + "," + long + "\n"
	for _, tc := range []struct {
		trim bool
		want []Tuple
		// same lists pairs of cells ({row, col}) that must share storage.
		same [][2][2]int
	}{
		{
			trim: false,
			want: []Tuple{{"x", " y"}, {"x", "y "}, {" z", "y"}, {"x", "w"}, {long, long}},
			same: [][2][2]int{{{0, 0}, {1, 0}}, {{0, 0}, {3, 0}}},
		},
		{
			trim: true,
			want: []Tuple{{"x", "y"}, {"x", "y"}, {"z", "y"}, {"x", "w"}, {long, long}},
			same: [][2][2]int{{{0, 0}, {1, 0}}, {{0, 0}, {3, 0}}, {{0, 1}, {1, 1}}, {{0, 1}, {2, 1}}},
		},
	} {
		rel, err := ReadCSVOpts(strings.NewReader(in), "", CSVOptions{TrimSpace: tc.trim})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rel.Tuples, tc.want) {
			t.Fatalf("trim=%v: cells %q, want %q", tc.trim, rel.Tuples, tc.want)
		}
		for _, p := range tc.same {
			a, b := rel.Tuples[p[0][0]][p[0][1]], rel.Tuples[p[1][0]][p[1][1]]
			if unsafe.StringData(a) != unsafe.StringData(b) {
				t.Errorf("trim=%v: cells %v and %v (%q) do not share storage", tc.trim, p[0], p[1], a)
			}
		}
		// encoding/csv lays a record's fields out back to back in one
		// string, so a cell pointing there would keep the line alive.
		a, b := rel.Tuples[4][0], rel.Tuples[4][1]
		if unsafe.Pointer(unsafe.StringData(b)) == unsafe.Add(unsafe.Pointer(unsafe.StringData(a)), len(a)) {
			t.Errorf("trim=%v: the cells of line 6 still point into the record's line", tc.trim)
		}
	}
}
