// Package tables regenerates the paper's figures and tables as text, for
// the `ra tables` tool and the reproduction tests:
//
//   - Figure 1: the classification overview of self-join-free CQs for
//     direct access and selection under LEX and SUM orders;
//   - Figure 2 / Example 1.1: the orderings of the running example's
//     answers and the tractability of each bullet;
//   - Figure 4: the preprocessing annotations (weights, starts) of the
//     layered structure for Example 3.6;
//   - Figure 8: the possibility table for direct access by SUM;
//   - the §8 FD examples.
package tables

import (
	"fmt"
	"strings"

	"rankedaccess/internal/access"
	"rankedaccess/internal/baseline"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
)

// Fig2DB returns the example database of Figure 2(a).
func Fig2DB() *database.Instance {
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

// Fig2Query returns the running 2-path query.
func Fig2Query() *cq.Query { return cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)") }

// Fig1 renders the Figure 1 overview: a catalog of representative
// self-join-free CQs placed into the regions of the two Venn diagrams.
func Fig1() string {
	type row struct {
		label, query, lexOrder string
	}
	rows := []row{
		{"free-connex, no trio, L-connex", "Q(x, y, z) :- R(x, y), S(y, z)", "x, y, z"},
		{"free-connex, disruptive trio", "Q(x, y, z) :- R(x, y), S(y, z)", "x, z, y"},
		{"free-connex, not L-connex", "Q(x, y, z) :- R(x, y), S(y, z)", "x, z"},
		{"acyclic, not free-connex", "Q(x, z) :- R(x, y), S(y, z)", "x, z"},
		{"free vars in one atom", "Q(x, y) :- R(x, y), S(y, z)", "x, y"},
		{"fmh = 2 (2-path)", "Q(x, y, z) :- R(x, y), S(y, z)", ""},
		{"fmh = 3 (full 3-path)", "Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)", ""},
		{"cyclic (triangle)", "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)", "x, y, z"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — classification of representative SJ-free CQs\n")
	fmt.Fprintf(&b, "%-34s | %-44s | %-10s | %-11s | %-10s | %-11s\n",
		"class", "query (order)", "DA-LEX", "Sel-LEX", "DA-SUM", "Sel-SUM")
	b.WriteString(strings.Repeat("-", 135) + "\n")
	for _, r := range rows {
		q := cq.MustParse(r.query)
		l, err := order.ParseLex(q, r.lexOrder)
		if err != nil {
			panic(err)
		}
		mark := func(v classify.Verdict, _ classify.WithFDs) string {
			if v.Tractable {
				return "tractable"
			}
			return "hard"
		}
		qo := r.query
		if r.lexOrder != "" {
			qo += " ⟨" + r.lexOrder + "⟩"
		}
		fmt.Fprintf(&b, "%-34s | %-44s | %-10s | %-11s | %-10s | %-11s\n",
			r.label, qo,
			mark(classify.DirectAccessLex(q, l, nil)),
			mark(classify.SelectionLex(q, l, nil)),
			mark(classify.DirectAccessSum(q, nil)),
			mark(classify.SelectionSum(q, nil)))
	}
	return b.String()
}

// Fig2 renders the three orderings of Figure 2(b–d) recomputed from the
// example database.
func Fig2() string {
	q := Fig2Query()
	in := Fig2DB()
	var b strings.Builder
	render := func(title string, l order.Lex, vars []string) {
		fmt.Fprintf(&b, "%s\n", title)
		answers := baseline.SortedByLex(q, in, l)
		fmt.Fprintf(&b, "      %s\n", strings.Join(vars, "  "))
		for i, a := range answers {
			fmt.Fprintf(&b, "  #%d ", i+1)
			for _, name := range vars {
				v, _ := q.VarByName(name)
				fmt.Fprintf(&b, "  %d", a[v])
			}
			fmt.Fprintln(&b)
		}
	}
	lxyz, _ := order.ParseLex(q, "x, y, z")
	render("(b) LEX ⟨x, y, z⟩", lxyz, []string{"x", "y", "z"})
	lxzy, _ := order.ParseLex(q, "x, z, y")
	render("(c) LEX ⟨x, z, y⟩", lxzy, []string{"x", "z", "y"})

	w := order.IdentitySum(q.Head...)
	answers := baseline.SortedBySum(q, in, w)
	fmt.Fprintf(&b, "(d) SUM x+y+z\n      x  y  z  x+y+z\n")
	for i, a := range answers {
		x, _ := q.VarByName("x")
		y, _ := q.VarByName("y")
		z, _ := q.VarByName("z")
		fmt.Fprintf(&b, "  #%d   %d  %d  %d  %v\n", i+1, a[x], a[y], a[z], w.AnswerWeight(q, a))
	}
	return b.String()
}

// Example11 renders the tractability of each bullet of Example 1.1.
func Example11() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Example 1.1 — the 2-path query under orders, projections, FDs")
	q := Fig2Query()
	qProj := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	qXY := cq.MustParse("Q(x, y) :- R(x, y), S(y, z)")

	l := func(qq *cq.Query, s string) order.Lex {
		o, err := order.ParseLex(qq, s)
		if err != nil {
			panic(err)
		}
		return o
	}
	emit := func(label string, v classify.Verdict) {
		side := "tractable"
		if !v.Tractable {
			side = "intractable"
		}
		fmt.Fprintf(&b, "  %-46s %s\n", label, side)
	}
	emit("LEX ⟨x,y,z⟩: direct access", verdict(classify.DirectAccessLex(q, l(q, "x, y, z"), nil)))
	emit("LEX ⟨x,z,y⟩: direct access", verdict(classify.DirectAccessLex(q, l(q, "x, z, y"), nil)))
	emit("LEX ⟨x,z,y⟩: selection", verdict(classify.SelectionLex(q, l(q, "x, z, y"), nil)))
	emit("LEX ⟨x,z⟩: direct access", verdict(classify.DirectAccessLex(q, l(q, "x, z"), nil)))
	emit("LEX ⟨x,z⟩: selection", verdict(classify.SelectionLex(q, l(q, "x, z"), nil)))
	emit("LEX ⟨x,z⟩, y projected: selection", verdict(classify.SelectionLex(qProj, l(qProj, "x, z"), nil)))
	emit("LEX ⟨x,z,y⟩ + FD R: y→x: direct access", verdict(classify.DirectAccessLex(q, l(q, "x, z, y"), fd.MustParse(q, "R: y -> x"))))
	emit("LEX ⟨x,z,y⟩ + FD S: y→z: direct access", verdict(classify.DirectAccessLex(q, l(q, "x, z, y"), fd.MustParse(q, "S: y -> z"))))
	emit("LEX ⟨x,z,y⟩ + FD R: x→y: direct access", verdict(classify.DirectAccessLex(q, l(q, "x, z, y"), fd.MustParse(q, "R: x -> y"))))
	emit("LEX ⟨x,z,y⟩ + FD S: z→y: direct access", verdict(classify.DirectAccessLex(q, l(q, "x, z, y"), fd.MustParse(q, "S: z -> y"))))
	emit("SUM x+y+z: direct access", verdict(classify.DirectAccessSum(q, nil)))
	emit("SUM x+y+z: selection", verdict(classify.SelectionSum(q, nil)))
	emit("SUM x+y, z projected: direct access", verdict(classify.DirectAccessSum(qXY, nil)))
	emit("SUM x+z, y projected: selection", verdict(classify.SelectionSum(qProj, nil)))
	return b.String()
}

// Fig4 renders the preprocessing annotations of Example 3.6 (the layered
// structure of query Q3 over the Figure 4 database).
func Fig4() (string, error) {
	q := cq.MustParse("Q3(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)")
	in := database.NewInstance()
	in.AddRow("R", 1, 1)
	in.AddRow("R", 1, 2)
	in.AddRow("R", 2, 2)
	in.AddRow("R", 2, 3)
	in.AddRow("S", 1, 1)
	in.AddRow("S", 1, 2)
	in.AddRow("S", 1, 3)
	in.AddRow("S", 2, 4)
	l, _ := order.ParseLex(q, "v1, v2, v3, v4")
	la, err := access.BuildLex(q, in, l)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — preprocessing of Q3 (a1=1, a2=2, b1=1, b2=2, c_i=i, d_i=i)\n")
	names := []string{"R' (v1)", "S' (v2)", "R (v1,v3)", "S (v2,v4)"}
	for layer := 0; layer < la.LayerCount(); layer++ {
		fmt.Fprintf(&b, "%s:\n", names[layer])
		for _, d := range la.DumpLayer(layer) {
			fmt.Fprintf(&b, "  key=%v value=%d weight=%d start=%d\n", d.Key, d.Value, d.Weight, d.Start)
		}
	}
	fmt.Fprintf(&b, "total answers: %d\n", la.Total())
	a, err := la.Access(12)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "access(k=12) → (%d, %d, %d, %d)   [expected (a2, b1, c3, d2) = (2, 1, 3, 2)]\n",
		a[mustVar(q, "v1")], a[mustVar(q, "v2")], a[mustVar(q, "v3")], a[mustVar(q, "v4")])
	return b.String(), nil
}

func mustVar(q *cq.Query, name string) cq.VarID {
	v, ok := q.VarByName(name)
	if !ok {
		panic("unknown variable " + name)
	}
	return v
}

// Fig8 renders the possibility table for direct access by SUM.
func Fig8() string {
	rows := []struct {
		cond, query string
	}{
		{"acyclic, α_free = 1", "Q(x, y) :- R(x, y), S(y, z)"},
		{"acyclic, α_free = 2", "Q(x, y, z) :- R(x, y), S(y, z), T(z, u)"},
		{"acyclic, α_free ≥ 3", "Q(x, y, z) :- R(x), S(y), T(z)"},
		{"cyclic", "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — direct access by SUM for SJ-free CQs\n")
	fmt.Fprintf(&b, "%-22s | %-44s | %s\n", "condition", "example query", "verdict")
	b.WriteString(strings.Repeat("-", 120) + "\n")
	for _, r := range rows {
		q := cq.MustParse(r.query)
		v, _ := classify.DirectAccessSum(q, nil)
		fmt.Fprintf(&b, "%-22s | %-44s | %s\n", r.cond, r.query, v.String())
	}
	return b.String()
}

// FDExamples renders the §8 worked examples.
func FDExamples() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Section 8 — unary FDs change the frontier")
	q2p := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	ext := fd.Extend(q2p, fd.MustParse(q2p, "S: y -> z"))
	fmt.Fprintf(&b, "  Example 8.3: %s + FD S: y→z\n", q2p.String())
	fmt.Fprintf(&b, "    Q+ = %s\n", ext.Query.String())
	v, _ := classify.DirectAccessSum(q2p, fd.MustParse(q2p, "S: y -> z"))
	fmt.Fprintf(&b, "    direct access by SUM: %s\n", v.String())

	q814 := cq.MustParse("Q(v1, v2, v3, v4) :- R(v1, v3), S(v3, v2), T(v2, v4)")
	l814, _ := order.ParseLex(q814, "v1, v2, v3, v4")
	v2, w := classify.DirectAccessLex(q814, l814, fd.MustParse(q814, "R: v1 -> v3"))
	fmt.Fprintf(&b, "  Example 8.14: order ⟨v1,v2,v3,v4⟩ + FD R: v1→v3 reorders to ⟨%s⟩: %s\n",
		w.LPlus.Render(q814), sideOf(v2))

	q819 := cq.MustParse("Q(v1, v2) :- R(v1, v3), S(v3, v2)")
	l819, _ := order.ParseLex(q819, "v1, v2")
	v3, w3 := classify.DirectAccessLex(q819, l819, fd.MustParse(q819, "S: v2 -> v3"))
	fmt.Fprintf(&b, "  Example 8.19: ⟨v1,v2⟩ + FD S: v2→v3 reorders to ⟨%s⟩: %s (trio %v)\n",
		w3.LPlus.Render(q819), sideOf(v3), v3.Trio)
	return b.String()
}

// verdict drops the FD witness of a classification.
func verdict(v classify.Verdict, _ classify.WithFDs) classify.Verdict { return v }

func sideOf(v classify.Verdict) string {
	if v.Tractable {
		return "tractable"
	}
	return "intractable"
}
