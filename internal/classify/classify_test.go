package classify

import (
	"strings"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
)

func lex(t *testing.T, q *cq.Query, s string) order.Lex {
	t.Helper()
	l, err := order.ParseLex(q, s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Example 1.1, bullets 1–4 and 9–11: the 2-path query under various
// orders and projections.
func TestExample11Bullets(t *testing.T) {
	qFull := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")

	// LEX ⟨x,y,z⟩: direct access tractable.
	if v, _ := DirectAccessLex(qFull, lex(t, qFull, "x, y, z"), nil); !v.Tractable {
		t.Fatalf("⟨x,y,z⟩ must be tractable: %v", v)
	}
	// LEX ⟨x,z,y⟩: DA intractable (disruptive trio); selection tractable.
	v, _ := DirectAccessLex(qFull, lex(t, qFull, "x, z, y"), nil)
	if v.Tractable {
		t.Fatalf("⟨x,z,y⟩ must be intractable: %v", v)
	}
	if len(v.Trio) != 3 {
		t.Fatalf("expected a trio certificate, got %+v", v)
	}
	if s, _ := SelectionLex(qFull, lex(t, qFull, "x, z, y"), nil); !s.Tractable {
		t.Fatalf("selection by ⟨x,z,y⟩ must be tractable: %v", s)
	}
	// LEX ⟨x,z⟩ partial: DA intractable (not L-connex); selection tractable.
	v, _ = DirectAccessLex(qFull, lex(t, qFull, "x, z"), nil)
	if v.Tractable {
		t.Fatalf("⟨x,z⟩ must be intractable: %v", v)
	}
	if len(v.SPath) == 0 || !strings.Contains(v.Reason, "L-connex") {
		t.Fatalf("expected an L-path certificate, got %+v", v)
	}
	if s, _ := SelectionLex(qFull, lex(t, qFull, "x, z"), nil); !s.Tractable {
		t.Fatalf("selection by partial ⟨x,z⟩ must be tractable: %v", s)
	}

	// y projected away: selection intractable (not free-connex).
	qProj := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	if s, _ := SelectionLex(qProj, lex(t, qProj, "x, z"), nil); s.Tractable {
		t.Fatalf("selection for non-free-connex query must be intractable: %v", s)
	}

	// SUM x+y+z: DA intractable, selection tractable.
	if v, _ := DirectAccessSum(qFull, nil); v.Tractable {
		t.Fatalf("DA by SUM on the 2-path must be intractable: %v", v)
	}
	if s, _ := SelectionSum(qFull, nil); !s.Tractable {
		t.Fatalf("selection by SUM on the 2-path must be tractable: %v", s)
	}
	// SUM x+y with z projected: DA tractable (free vars inside R).
	qXY := cq.MustParse("Q(x, y) :- R(x, y), S(y, z)")
	if v, _ := DirectAccessSum(qXY, nil); !v.Tractable {
		t.Fatalf("DA by SUM with free vars in one atom must be tractable: %v", v)
	}
	// SUM x+z with y projected: selection intractable (not free-connex).
	if s, _ := SelectionSum(qProj, nil); s.Tractable {
		t.Fatalf("selection by SUM for non-free-connex query must be intractable: %v", s)
	}
}

// Example 1.1 FD bullets (and Example 8.14's spirit): the 2-path with
// LEX ⟨x,z,y⟩ under different FDs.
func TestExample11FDBullets(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	l := lex(t, q, "x, z, y")

	// FD R: y → x makes it tractable.
	if v, _ := DirectAccessLex(q, l, fd.MustParse(q, "R: y -> x")); !v.Tractable {
		t.Fatalf("FD R: y->x must make ⟨x,z,y⟩ tractable: %v", v)
	}
	// FD S: y → z makes it tractable.
	if v, _ := DirectAccessLex(q, l, fd.MustParse(q, "S: y -> z")); !v.Tractable {
		t.Fatalf("FD S: y->z must make ⟨x,z,y⟩ tractable: %v", v)
	}
	// FD R: x → y makes it tractable (order reorders to ⟨x,y,z⟩).
	v, w := DirectAccessLex(q, l, fd.MustParse(q, "R: x -> y"))
	if !v.Tractable {
		t.Fatalf("FD R: x->y must make ⟨x,z,y⟩ tractable: %v", v)
	}
	got := make([]string, len(w.LPlus.Entries))
	for i, e := range w.LPlus.Entries {
		got[i] = q.VarName(e.Var)
	}
	if strings.Join(got, ",") != "x,y,z" {
		t.Fatalf("L+ = %v, want x,y,z", got)
	}
	// FD S: z → y does not help.
	if v, _ := DirectAccessLex(q, l, fd.MustParse(q, "S: z -> y")); v.Tractable {
		t.Fatalf("FD S: z->y must not help: %v", v)
	}
	// No FDs at all: intractable.
	if v, _ := DirectAccessLex(q, l, nil); v.Tractable {
		t.Fatal("without FDs the trio must remain")
	}
}

// The introduction's epidemic example: Visits(person, age, city) ⋈
// Cases(city, date, cases).
func TestIntroVisitsCases(t *testing.T) {
	q := cq.MustParse("Q(person, age, city, date, cases) :- Visits(person, age, city), Cases(city, date, cases)")

	// (cases, age, city, date, person): disruptive trio cases/age/city.
	v, _ := DirectAccessLex(q, lex(t, q, "cases, age, city, date, person"), nil)
	if v.Tractable || len(v.Trio) != 3 {
		t.Fatalf("intro order must be intractable with a trio: %+v", v)
	}
	// Partial (cases, age): not L-connex.
	v, _ = DirectAccessLex(q, lex(t, q, "cases, age"), nil)
	if v.Tractable || !strings.Contains(v.Reason, "L-connex") {
		t.Fatalf("(cases, age) must fail L-connexity: %+v", v)
	}
	// (cases, city, age): tractable.
	if v, _ := DirectAccessLex(q, lex(t, q, "cases, city, age"), nil); !v.Tractable {
		t.Fatalf("(cases, city, age) must be tractable: %v", v)
	}
	// Descending directions do not change the classification.
	if v, _ := DirectAccessLex(q, lex(t, q, "cases desc, city, age"), nil); !v.Tractable {
		t.Fatalf("descending component must stay tractable: %v", v)
	}
	// SUM over all five attributes: intractable.
	if v, _ := DirectAccessSum(q, nil); v.Tractable {
		t.Fatalf("SUM on the join must be intractable: %v", v)
	}
	// The Cartesian-product variant from §5 is intractable by SUM even
	// though every full lexicographic order is tractable.
	qp := cq.MustParse("Q(c1, d, x, p, a, c2) :- Visits(p, a, c1), Cases(c2, d, x)")
	if v, _ := DirectAccessSum(qp, nil); v.Tractable {
		t.Fatalf("cross product by SUM must be intractable: %v", v)
	}
	if v, _ := DirectAccessLex(qp, lex(t, qp, "c1, d, x, p, a, c2"), nil); !v.Tractable {
		t.Fatalf("lexicographic order on the product must be tractable: %v", v)
	}
}

// Example 4.2: partial orders on the 2-path.
func TestExample42(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	if v, _ := DirectAccessLex(q, lex(t, q, "x, y, z"), nil); !v.Tractable {
		t.Fatal("⟨x,y,z⟩ tractable")
	}
	if v, _ := DirectAccessLex(q, lex(t, q, "z, y"), nil); !v.Tractable {
		t.Fatal("⟨z,y⟩ tractable")
	}
	if v, _ := DirectAccessLex(q, lex(t, q, "x, z"), nil); v.Tractable {
		t.Fatal("⟨x,z⟩ intractable")
	}
	if v, _ := DirectAccessLex(q, lex(t, q, "x, z, y"), nil); v.Tractable {
		t.Fatal("⟨x,z,y⟩ intractable")
	}
}

// §2.5 catalog: queries and orders unsupported by earlier structures but
// covered by the paper's algorithm.
func TestSection25Queries(t *testing.T) {
	cases := []struct {
		src, order string
	}{
		{"Q3(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)", "v1, v2, v3, v4"},
		{"Q4(v1, v2, v3) :- R1(v1, v2), R2(v2, v3)", "v1, v2, v3"},
		{"Q5(v1, v2, v3, v4, v5) :- R1(v1, v3), R2(v3, v4), R3(v2, v5)", "v1, v2, v3, v4, v5"},
		{"Q6(v1, v2, v3, v4, v5) :- R1(v1, v2, v4), R2(v2, v3, v5)", "v1, v2, v3, v4, v5"},
		{"Q1(x, y) :- R1(x), R2(x, y), R3(y)", "x, y"},
		{"Q2(x) :- R1(x, y), R2(y)", "x"},
	}
	for _, c := range cases {
		q := cq.MustParse(c.src)
		if v, _ := DirectAccessLex(q, lex(t, q, c.order), nil); !v.Tractable {
			t.Errorf("%s with ⟨%s⟩ must be tractable: %v", c.src, c.order, v)
		}
	}
}

// Example 3.1 / Theorem 3.3 hard side: the layered order with the join
// variable last.
func TestExample31(t *testing.T) {
	q := cq.MustParse("Q(v1, v2, v3) :- R(v1, v3), S(v3, v2)")
	v, _ := DirectAccessLex(q, lex(t, q, "v1, v2, v3"), nil)
	if v.Tractable || len(v.Trio) != 3 {
		t.Fatalf("Example 3.1 order must be intractable with a trio: %+v", v)
	}
}

// Example 7.4: fmh-based SUM selection classification.
func TestExample74(t *testing.T) {
	q2 := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	if v, _ := SelectionSum(q2, nil); !v.Tractable {
		t.Fatalf("2-path selection by SUM tractable: %v", v)
	}
	q3proj := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z), T(z, u)")
	if v, _ := SelectionSum(q3proj, nil); !v.Tractable {
		t.Fatalf("3-path with u projected must be tractable (fmh = 2): %v", v)
	}
	q3 := cq.MustParse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)")
	if v, _ := SelectionSum(q3, nil); v.Tractable {
		t.Fatalf("full 3-path selection by SUM must be intractable: %v", v)
	}
	// Certificate: chordless 4-path.
	if v, _ := SelectionSum(q3, nil); len(v.SPath) != 4 {
		t.Fatalf("expected chordless 4-path certificate: %+v", v)
	}
}

// SUM direct access classification and α_free-dependent refuted bounds
// (Figure 8 rows).
func TestFig8Rows(t *testing.T) {
	// α_free = 1: tractable.
	q1 := cq.MustParse("Q(x, y) :- R(x, y), S(y, z)")
	if v, _ := DirectAccessSum(q1, nil); !v.Tractable {
		t.Fatalf("α=1 row: %v", v)
	}
	// α_free = 2 row: ⟨n^(2-ε), n^(1-ε)⟩ refuted.
	q2 := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z), T(z, u)")
	v, _ := DirectAccessSum(q2, nil)
	if v.Tractable || !strings.Contains(v.Bound, "n^(1-ε)") {
		t.Fatalf("α=2 row: %+v", v)
	}
	// α_free = 3 row: ⟨n^(2-ε), n^(2-ε)⟩ refuted.
	q3 := cq.MustParse("Q(x, y, z) :- R(x), S(y), T(z)")
	v, _ = DirectAccessSum(q3, nil)
	if v.Tractable || !strings.Contains(v.Bound, "n^(2-ε)") {
		t.Fatalf("α=3 row: %+v", v)
	}
	// Cyclic row.
	qc := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	v, _ = DirectAccessSum(qc, nil)
	if v.Tractable || v.Hypotheses[0] != "HYPERCLIQUE" {
		t.Fatalf("cyclic row: %+v", v)
	}
}

// Example 8.3: FDs can turn non-free-connex and even cyclic queries
// tractable.
func TestExample83Classify(t *testing.T) {
	q := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	fds := fd.MustParse(q, "S: y -> z")
	// Without FDs: selection intractable.
	if v, _ := SelectionLex(q, lex(t, q, "x, z"), nil); v.Tractable {
		t.Fatal("without FDs Q2P must be intractable")
	}
	// With the FD: everything becomes tractable.
	if v, _ := SelectionLex(q, lex(t, q, "x, z"), fds); !v.Tractable {
		t.Fatalf("selection with FD: %v", v)
	}
	if v, _ := DirectAccessLex(q, lex(t, q, "x, z"), fds); !v.Tractable {
		t.Fatalf("DA with FD: %v", v)
	}
	if v, _ := DirectAccessSum(q, fds); !v.Tractable {
		t.Fatalf("DA by SUM with FD: %v", v)
	}
	if v, _ := SelectionSum(q, fds); !v.Tractable {
		t.Fatalf("selection by SUM with FD: %v", v)
	}

	// Triangle with FD S: y → z: acyclic extension, R⁺ covers everything.
	qt := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	fdt := fd.MustParse(qt, "S: y -> z")
	if v, _ := DirectAccessSum(qt, nil); v.Tractable {
		t.Fatal("triangle without FDs is cyclic")
	}
	if v, _ := DirectAccessSum(qt, fdt); !v.Tractable {
		t.Fatalf("triangle with FD must be tractable: %v", v)
	}
}

// Example 8.19: Q(v1,v2) :- R(v1,v3), S(v3,v2) with S: v2 → v3 and
// L = ⟨v1,v2⟩. The reordered extension has the trio v1, v2, v3, and the
// paper proves this case is intractable (Lemma 8.20).
func TestExample819Classify(t *testing.T) {
	q := cq.MustParse("Q(v1, v2) :- R(v1, v3), S(v3, v2)")
	fds := fd.MustParse(q, "S: v2 -> v3")
	v, w := DirectAccessLex(q, lex(t, q, "v1, v2"), fds)
	if v.Tractable {
		t.Fatalf("Example 8.19 must be intractable: %v", v)
	}
	if len(v.Trio) != 3 {
		t.Fatalf("expected trio certificate on the reordered extension: %+v", v)
	}
	names := make([]string, len(w.LPlus.Entries))
	for i, e := range w.LPlus.Entries {
		names[i] = q.VarName(e.Var)
	}
	if strings.Join(names, ",") != "v1,v2,v3" {
		t.Fatalf("L+ = %v", names)
	}
	// Selection, by contrast, becomes tractable: Q⁺ is free-connex.
	if s, _ := SelectionLex(q, lex(t, q, "v1, v2"), fds); !s.Tractable {
		t.Fatalf("selection for Example 8.19 must be tractable: %v", s)
	}
}

// Self-join caveat: hardness verdicts on queries with self-joins carry
// the caveat flag.
func TestSelfJoinCaveat(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), R(y, z)")
	v, _ := DirectAccessLex(q, lex(t, q, "x, z, y"), nil)
	if v.Tractable || !v.SelfJoinCaveat {
		t.Fatalf("self-join hard verdict must carry caveat: %+v", v)
	}
	// Tractable verdicts don't need the caveat.
	v, _ = DirectAccessLex(q, lex(t, q, "x, y, z"), nil)
	if !v.Tractable || v.SelfJoinCaveat {
		t.Fatalf("tractable self-join verdict: %+v", v)
	}
}

func TestVerdictString(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	v, _ := DirectAccessLex(q, lex(t, q, "x, z, y"), nil)
	s := v.String()
	if !strings.Contains(s, "INTRACTABLE") || !strings.Contains(s, "sparseBMM") {
		t.Fatalf("verdict string = %q", s)
	}
	v, _ = DirectAccessLex(q, lex(t, q, "x, y, z"), nil)
	if !strings.Contains(v.String(), "TRACTABLE") {
		t.Fatalf("verdict string = %q", v.String())
	}
}

// Boolean queries: trivially tractable everywhere when acyclic.
func TestBooleanQueries(t *testing.T) {
	q := cq.MustParse("Q() :- R(x, y), S(y, z)")
	if v, _ := DirectAccessLex(q, order.Lex{}, nil); !v.Tractable {
		t.Fatalf("Boolean acyclic DA: %v", v)
	}
	if v, _ := DirectAccessSum(q, nil); !v.Tractable {
		t.Fatalf("Boolean acyclic DA-SUM: %v", v)
	}
	if v, _ := SelectionSum(q, nil); !v.Tractable {
		t.Fatalf("Boolean acyclic selection-SUM: %v", v)
	}
	qc := cq.MustParse("Q() :- R(x, y), S(y, z), T(z, x)")
	if v, _ := DirectAccessLex(qc, order.Lex{}, nil); v.Tractable {
		t.Fatalf("Boolean cyclic DA must be intractable: %v", v)
	}
}

func TestInvalidOrderVerdicts(t *testing.T) {
	q := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	y, _ := q.VarByName("y")
	bad := order.NewLex(y)
	if v, _ := DirectAccessLex(q, bad, nil); v.Tractable || !strings.Contains(v.Reason, "invalid order") {
		t.Fatalf("invalid order verdict: %+v", v)
	}
	if v, _ := SelectionLex(q, bad, nil); v.Tractable || !strings.Contains(v.Reason, "invalid order") {
		t.Fatalf("invalid order verdict: %+v", v)
	}
}
