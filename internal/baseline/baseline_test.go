package baseline

import (
	"reflect"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// fig2 builds the example database of Figure 2(a).
func fig2() *database.Instance {
	in := database.NewInstance()
	in.AddRow("R", 1, 5)
	in.AddRow("R", 1, 2)
	in.AddRow("R", 6, 2)
	in.AddRow("S", 5, 3)
	in.AddRow("S", 5, 4)
	in.AddRow("S", 5, 6)
	in.AddRow("S", 2, 5)
	return in
}

func proj(q *cq.Query, a order.Answer) []values.Value {
	out := make([]values.Value, len(q.Head))
	for i, v := range q.Head {
		out[i] = a[v]
	}
	return out
}

func TestFig2AllAnswers(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	got := AllAnswers(q, fig2())
	if len(got) != 5 {
		t.Fatalf("|Q(I)| = %d, want 5", len(got))
	}
}

// Figure 2(b): LEX ⟨x,y,z⟩ ordering of the example answers.
func TestFig2LexXYZ(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	l, _ := order.ParseLex(q, "x, y, z")
	got := SortedByLex(q, fig2(), l)
	want := [][]values.Value{
		{1, 2, 5}, {1, 5, 3}, {1, 5, 4}, {1, 5, 6}, {6, 2, 5},
	}
	for i, a := range got {
		if !reflect.DeepEqual(proj(q, a), want[i]) {
			t.Fatalf("answer #%d = %v, want %v", i+1, proj(q, a), want[i])
		}
	}
}

// Figure 2(c): LEX ⟨x,z,y⟩ ordering.
func TestFig2LexXZY(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	l, _ := order.ParseLex(q, "x, z, y")
	got := SortedByLex(q, fig2(), l)
	// The paper lists (x, z, y) triples; translate to (x, y, z).
	want := [][]values.Value{
		{1, 5, 3}, {1, 5, 4}, {1, 2, 5}, {1, 5, 6}, {6, 2, 5},
	}
	for i, a := range got {
		if !reflect.DeepEqual(proj(q, a), want[i]) {
			t.Fatalf("answer #%d = %v, want %v", i+1, proj(q, a), want[i])
		}
	}
}

// Figure 2(d): SUM ordering with identity weights. (The arXiv text
// extraction of the figure is garbled — it lists (1,2,6), which is not an
// answer of the Figure 2(a) database; the correct sums of the five
// answers are 8, 9, 10, 12, 13.)
func TestFig2Sum(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	x, _ := q.VarByName("x")
	y, _ := q.VarByName("y")
	z, _ := q.VarByName("z")
	w := order.IdentitySum(x, y, z)
	got := SortedBySum(q, fig2(), w)
	wantWeights := []float64{8, 9, 10, 12, 13}
	for i, a := range got {
		if got := w.AnswerWeight(q, a); got != wantWeights[i] {
			t.Fatalf("weight #%d = %v, want %v", i+1, got, wantWeights[i])
		}
	}
	if !reflect.DeepEqual(proj(q, got[0]), []values.Value{1, 2, 5}) {
		t.Fatalf("first answer = %v", proj(q, got[0]))
	}
	if !reflect.DeepEqual(proj(q, got[4]), []values.Value{6, 2, 5}) {
		t.Fatalf("last answer = %v", proj(q, got[4]))
	}
}

func TestProjectionDedup(t *testing.T) {
	q := cq.MustParse("Q(x) :- R(x, y)")
	in := database.NewInstance()
	in.AddRow("R", 1, 5)
	in.AddRow("R", 1, 2)
	in.AddRow("R", 6, 2)
	got := AllAnswers(q, in)
	if len(got) != 2 {
		t.Fatalf("projection must deduplicate: %d answers", len(got))
	}
}

func TestBooleanQuery(t *testing.T) {
	q := cq.MustParse("Q() :- R(x, y), S(y, x)")
	in := database.NewInstance()
	in.AddRow("R", 1, 2)
	in.AddRow("S", 3, 4)
	if got := Count(q, in); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	in.AddRow("S", 2, 1)
	if got := Count(q, in); got != 1 {
		t.Fatalf("count = %d, want 1 (Boolean queries have at most one answer)", got)
	}
}

func TestSelfJoin(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), R(y, z)")
	in := database.NewInstance()
	in.AddRow("R", 1, 2)
	in.AddRow("R", 2, 3)
	got := AllAnswers(q, in)
	if len(got) != 1 {
		t.Fatalf("self-join answers = %d, want 1 (1-2-3)", len(got))
	}
}

func TestRepeatedVariable(t *testing.T) {
	q := cq.MustParse("Q(x) :- R(x, x)")
	in := database.NewInstance()
	in.AddRow("R", 1, 1)
	in.AddRow("R", 1, 2)
	in.AddRow("R", 3, 3)
	if got := Count(q, in); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestCyclicTriangleJoin(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	in := database.NewInstance()
	in.AddRow("R", 1, 2)
	in.AddRow("S", 2, 3)
	in.AddRow("T", 3, 1)
	in.AddRow("T", 3, 9)
	if got := Count(q, in); got != 1 {
		t.Fatalf("triangle count = %d, want 1", got)
	}
}

func TestMissingRelationYieldsNoAnswers(t *testing.T) {
	q := cq.MustParse("Q(x, y) :- R(x, y), S(y)")
	in := database.NewInstance()
	in.AddRow("R", 1, 2)
	if got := Count(q, in); got != 0 {
		t.Fatalf("count = %d, want 0 for missing relation", got)
	}
}

func TestCartesianProduct(t *testing.T) {
	q := cq.MustParse("Q(x, y) :- R(x), S(y)")
	in := database.NewInstance()
	in.AddRow("R", 1)
	in.AddRow("R", 2)
	in.AddRow("S", 10)
	in.AddRow("S", 20)
	in.AddRow("S", 30)
	if got := Count(q, in); got != 6 {
		t.Fatalf("product count = %d, want 6", got)
	}
}

// A relation holding every row many times has the answers of its
// distinct rows, in the same order. The three-path with 300 copies of
// the one row (5, 5) per relation walked 300³ combinations for its one
// answer while the join read repeated rows.
func TestAllAnswersDuplicateRows(t *testing.T) {
	threePath := database.NewInstance()
	for _, rel := range []string{"R", "S", "T"} {
		threePath.AddRow(rel, 5, 5)
		threePath.AddRow(rel, 5, 1)
	}
	cases := []struct {
		q      string
		in     *database.Instance
		copies int
	}{
		{"Q(x, y, z) :- R(x, y), S(y, z)", fig2(), 7},
		{"Q(x, z) :- R(x, y), S(y, z)", fig2(), 3},
		{"Q(x, y, z) :- R(x, y), R(y, z)", fig2(), 4},
		{"Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)", threePath, 300},
	}
	for _, c := range cases {
		q := cq.MustParse(c.q)
		dup := database.NewInstance()
		for _, name := range c.in.Names() {
			for r := 0; r < c.copies; r++ {
				for _, row := range c.in.Relation(name).Rows() {
					dup.AddRow(name, row...)
				}
			}
		}
		want := AllAnswers(q, c.in)
		if got := AllAnswers(q, dup); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s with every row %d times: %v, distinct rows give %v", c.q, c.copies, got, want)
		}
	}
}
