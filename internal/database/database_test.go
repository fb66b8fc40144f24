package database

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rankedaccess/internal/values"
)

func rel(rows ...[]values.Value) *Relation { return FromRows(rows) }

func row(vs ...values.Value) []values.Value { return vs }

func TestAppendTupleLen(t *testing.T) {
	r := NewRelation(2)
	r.Append(1, 5)
	r.Append(1, 2)
	if r.Len() != 2 || r.Arity() != 2 {
		t.Fatalf("len=%d arity=%d", r.Len(), r.Arity())
	}
	if !reflect.DeepEqual(r.Tuple(1), row(1, 2)) {
		t.Fatalf("tuple = %v", r.Tuple(1))
	}
}

func TestAppendWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRelation(2).Append(1)
}

func TestNullaryRelation(t *testing.T) {
	r := NewRelation(0)
	if r.Len() != 0 {
		t.Fatal("empty nullary")
	}
	r.Append()
	r.Append()
	if r.Len() != 2 {
		t.Fatalf("nullary len = %d", r.Len())
	}
	d := r.Dedup()
	if d.Len() != 1 {
		t.Fatalf("dedup nullary len = %d", d.Len())
	}
}

func TestProjectDedup(t *testing.T) {
	r := rel(row(1, 5), row(1, 2), row(6, 2))
	p := r.Project([]int{0}).Dedup()
	got := p.Rows()
	sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
	if !reflect.DeepEqual(got, [][]values.Value{row(1), row(6)}) {
		t.Fatalf("project+dedup = %v", got)
	}
}

// Dedup and ProjectDistinct return the distinct rows in ascending
// order and leave their receiver as it was.
func TestDistinctSorted(t *testing.T) {
	r := rel(row(6, 2), row(1, 5), row(1, 2), row(6, 2), row(1, 5))
	before := r.Rows()
	if got, want := r.Dedup().Rows(), [][]values.Value{row(1, 2), row(1, 5), row(6, 2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup = %v, want %v", got, want)
	}
	if got, want := r.ProjectDistinct([]int{1, 0}).Rows(), [][]values.Value{row(2, 1), row(2, 6), row(5, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("project-distinct = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(r.Rows(), before) {
		t.Fatalf("receiver changed: %v, was %v", r.Rows(), before)
	}
}

func TestProjectReorder(t *testing.T) {
	r := rel(row(1, 2, 3))
	p := r.Project([]int{2, 0})
	if !reflect.DeepEqual(p.Tuple(0), row(3, 1)) {
		t.Fatalf("reorder projection = %v", p.Tuple(0))
	}
}

func TestFilter(t *testing.T) {
	r := rel(row(1, 5), row(1, 2), row(6, 2))
	f := r.Filter(func(t []values.Value) bool { return t[1] == 2 })
	if f.Len() != 2 {
		t.Fatalf("filter len = %d", f.Len())
	}
}

func TestSortLex(t *testing.T) {
	r := rel(row(6, 2), row(1, 5), row(1, 2))
	r.SortLex()
	want := [][]values.Value{row(1, 2), row(1, 5), row(6, 2)}
	if !reflect.DeepEqual(r.Rows(), want) {
		t.Fatalf("sorted = %v", r.Rows())
	}
}

func TestSemijoin(t *testing.T) {
	// Fig. 2a: R(x,y) = {(1,5),(1,2),(6,2)}, S(y,z) = {(5,3),(5,4),(5,6),(2,5)}.
	// Semijoin R on y with S keeps all of R; semijoin S with R keeps all of S.
	R := rel(row(1, 5), row(1, 2), row(6, 2))
	S := rel(row(5, 3), row(5, 4), row(5, 6), row(2, 5))
	if got := R.Semijoin([]int{1}, S, []int{0}); got.Len() != 3 {
		t.Fatalf("R⋉S len = %d", got.Len())
	}
	// Add a dangling R tuple.
	R2 := rel(row(1, 5), row(1, 2), row(6, 2), row(9, 9))
	got := R2.Semijoin([]int{1}, S, []int{0})
	if got.Len() != 3 {
		t.Fatalf("dangling tuple not removed: %v", got.Rows())
	}
}

func TestSemijoinEmptyKey(t *testing.T) {
	R := rel(row(1), row(2))
	S := NewRelation(3)
	if got := R.Semijoin(nil, S, nil); got.Len() != 0 {
		t.Fatal("semijoin with empty right side must empty the left")
	}
	S.Append(7, 8, 9)
	if got := R.Semijoin(nil, S, nil); got.Len() != 2 {
		t.Fatal("semijoin with non-empty right side keeps all")
	}
}

func TestCloneIsolation(t *testing.T) {
	r := rel(row(1, 2))
	c := r.Clone()
	c.Append(3, 4)
	if r.Len() != 1 {
		t.Fatal("clone mutated original")
	}
}

func TestInstanceBasics(t *testing.T) {
	in := NewInstance()
	in.AddRow("R", 1, 5)
	in.AddRow("R", 1, 2)
	in.AddRow("S", 5, 3)
	if in.Size() != 3 {
		t.Fatalf("size = %d", in.Size())
	}
	if !reflect.DeepEqual(in.Names(), []string{"R", "S"}) {
		t.Fatalf("names = %v", in.Names())
	}
	c := in.Clone()
	c.AddRow("R", 9, 9)
	if in.Relation("R").Len() != 2 {
		t.Fatal("clone mutated original instance")
	}
}

func TestInstanceNamedRows(t *testing.T) {
	in := NewInstance()
	in.Dict = values.SortedDict([]string{"anna", "boston", "salem"})
	in.AddNamedRow("V", "anna", "boston")
	va, _ := in.Dict.Lookup("anna")
	vb, _ := in.Dict.Lookup("boston")
	if !reflect.DeepEqual(in.Relation("V").Tuple(0), row(va, vb)) {
		t.Fatal("named row mismatch")
	}
}

func TestReadWriteRelation(t *testing.T) {
	in := NewInstance()
	src := "# comment\n1\t5\n1 2\n\n6 2\n"
	if err := in.ReadRelation("R", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if in.Relation("R").Len() != 3 {
		t.Fatalf("read %d rows", in.Relation("R").Len())
	}
	var sb strings.Builder
	if err := in.WriteRelation("R", &sb); err != nil {
		t.Fatal(err)
	}
	in2 := NewInstance()
	if err := in2.ReadRelation("R", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in2.Relation("R").Rows(), in.Relation("R").Rows()) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadRelationErrors(t *testing.T) {
	in := NewInstance()
	if err := in.ReadRelation("R", strings.NewReader("1 2\n3\n")); err == nil {
		t.Fatal("ragged arity must error")
	}
	if err := in.ReadRelation("R", strings.NewReader("1 x\n")); err == nil {
		t.Fatal("non-integer must error")
	}
	if err := in.WriteRelation("missing", &strings.Builder{}); err == nil {
		t.Fatal("missing relation must error")
	}
}

// TestReadDir: WriteDir's layout round-trips; entries that are not
// <Name>.tsv files are skipped; a directory with no .tsv at all and a
// bad row are errors.
func TestReadDir(t *testing.T) {
	src := NewInstance()
	src.AddRow("R", 1, 2)
	src.AddRow("R", 3, 4)
	src.AddRow("S", 2, 9)
	dir := t.TempDir()
	if err := src.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a relation"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "T.tsv"), 0o755); err != nil {
		t.Fatal(err)
	}
	in := NewInstance()
	if n, err := in.ReadDir(dir); err != nil || n != 2 {
		t.Fatalf("ReadDir = %d, %v; want 2 relations", n, err)
	}
	for _, name := range []string{"R", "S"} {
		if !reflect.DeepEqual(in.Relation(name).Rows(), src.Relation(name).Rows()) {
			t.Fatalf("relation %s did not round-trip", name)
		}
	}

	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "notes.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance().ReadDir(empty); err == nil || err.Error() != "no .tsv files in "+empty {
		t.Fatalf("ReadDir(no .tsv) = %v", err)
	}
	if _, err := NewInstance().ReadDir(filepath.Join(empty, "missing")); err == nil {
		t.Fatal("ReadDir of a missing directory must error")
	}
	if err := os.WriteFile(filepath.Join(empty, "R.tsv"), []byte("1 2\n3 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance().ReadDir(empty); err == nil || !strings.Contains(err.Error(), "relation R") {
		t.Fatalf("ReadDir(bad row) = %v", err)
	}
}

func TestSwapRemoveReportsMovedTuple(t *testing.T) {
	r := FromRows([][]values.Value{row(1, 1), row(2, 2), row(3, 3)})
	if moved := r.SwapRemove(0); moved != 2 {
		t.Fatalf("removing tuple 0 of 3 moved %d, want 2", moved)
	}
	if got := r.Rows(); len(got) != 2 || got[0][0] != 3 || got[1][0] != 2 {
		t.Fatalf("after removing tuple 0: %v", got)
	}
	if moved := r.SwapRemove(1); moved != -1 {
		t.Fatalf("removing the last tuple moved %d, want -1", moved)
	}
	if got := r.Rows(); len(got) != 1 || got[0][0] != 3 {
		t.Fatalf("after removing the last tuple: %v", got)
	}
	b := NewRelation(0)
	b.Append()
	b.Append()
	if moved := b.SwapRemove(0); moved != 1 || b.Len() != 1 {
		t.Fatalf("nullary: moved %d, %d tuples left", moved, b.Len())
	}
}
