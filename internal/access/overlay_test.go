package access

import (
	"math/rand"
	"slices"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// twoPathInstance builds a random 2-path instance. (The merged probes
// themselves are checked by the conformance table, TestOverlay* in
// conformance_test.go.)
func twoPathInstance(rng *rand.Rand, n, dom int) (*cq.Query, *database.Instance) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	in := database.NewInstance()
	for i := 0; i < n; i++ {
		in.AddRow("R", values.Value(rng.Intn(dom)), values.Value(rng.Intn(dom)))
		in.AddRow("S", values.Value(rng.Intn(dom)), values.Value(rng.Intn(dom)))
	}
	return q, in
}

func TestOverlayRejectsBadEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q, in := twoPathInstance(rng, 30, 6)
	l, err := order.ParseLex(q, "x")
	if err != nil {
		t.Fatal(err)
	}
	la, err := BuildLex(q, in, l)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := BaseOfLex(la)
	if !ok || b != la {
		t.Fatal("lex base refused")
	}
	a0, err := la.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOverlay(b, []order.Answer{a0}, nil); err == nil {
		t.Fatal("adding an existing answer should fail")
	}
	ghost := make(order.Answer, q.NumVars())
	for _, v := range q.Head {
		ghost[v] = 999
	}
	if _, err := NewOverlay(b, nil, []order.Answer{ghost}); err == nil {
		t.Fatal("deleting a missing answer should fail")
	}
}

// BaseOfLex is the overlay-eligibility predicate of layered structures.
func TestBaseOfLexRefusesBooleanAndFD(t *testing.T) {
	qb := cq.MustParse("Q() :- R(x, y), S(y, z)")
	lb, err := BuildLex(qb, fig2(), order.Lex{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := BaseOfLex(lb); ok {
		t.Fatal("a Boolean structure has no answer tuples to edit")
	}
	q := cq.MustParse("Q(x, y) :- R(x, y)")
	fds, err := fd.Parse(q, "R: x -> y")
	if err != nil {
		t.Fatal(err)
	}
	in := database.NewInstance()
	in.AddRow("R", 1, 2)
	lf, err := BuildLexFD(q, in, lex(t, q, "y, x"), fds)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := BaseOfLex(lf); ok {
		t.Fatal("an FD-extended structure answers in the extended space")
	}
}

// A snapshot whose checksums are valid can still carry rows in the
// wrong order; a row array that served them would answer Rank — and so
// Inverted, shard merges and overlay edits — silently wrong. The
// FromParts constructors know the order and refuse.
func TestRowsFromPartsRejectsUnsortedRows(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	l := lex(t, q, "x, z, y")
	w := order.IdentitySum(q.Head...)
	qs := cq.MustParse("Q(x, y) :- R(x, y)")
	ws := order.IdentitySum(qs.Head...)
	s, err := BuildSum(qs, fig2(), ws)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		parts func() (*RowParts, bool)
		load  func(*RowParts) (Structure, error)
	}{
		"mat-lex": {BuildMaterializedLex(q, fig2(), l).Parts,
			func(p *RowParts) (Structure, error) { return MatFromParts(q, l, order.Sum{}, false, p) }},
		"mat-sum": {BuildMaterializedSum(q, fig2(), w).Parts,
			func(p *RowParts) (Structure, error) { return MatFromParts(q, order.Lex{}, w, true, p) }},
		"sum": {s.Parts,
			func(p *RowParts) (Structure, error) { return SumFromParts(qs, ws, p) }},
	}
	for name, c := range cases {
		p, ok := c.parts()
		if !ok {
			t.Fatalf("%s: no parts", name)
		}
		st, err := c.load(p)
		if err != nil {
			t.Fatalf("%s: round trip: %v", name, err)
		}
		for k := int64(0); k < st.Total(); k++ {
			a, _ := st.Access(k)
			if r, exact := st.Rank(a); r != k || !exact {
				t.Fatalf("%s: restored Rank(Access(%d)) = (%d, %v)", name, k, r, exact)
			}
		}
		// Swap rows 0 and 1, answers and weights together: each row still
		// carries its own weight, only the order is wrong.
		nv := p.NumVars
		swapped := &RowParts{NumVars: nv, Flat: slices.Clone(p.Flat), Weights: slices.Clone(p.Weights)}
		for i := 0; i < nv; i++ {
			swapped.Flat[i], swapped.Flat[nv+i] = swapped.Flat[nv+i], swapped.Flat[i]
		}
		if swapped.Weights != nil {
			swapped.Weights[0], swapped.Weights[1] = swapped.Weights[1], swapped.Weights[0]
		}
		if _, err := c.load(swapped); err == nil {
			t.Fatalf("%s: rows 0 and 1 swapped, still loaded", name)
		}
		// Swap the answers alone: the stored weights stay sorted but no
		// longer belong to their rows.
		if p.Weights != nil && p.Weights[0] != p.Weights[1] {
			swapped.Weights = p.Weights
			if _, err := c.load(swapped); err == nil {
				t.Fatalf("%s: answers swapped under their weights, still loaded", name)
			}
		}
	}
}
