// Package experiments implements the reproduction harness: for each
// complexity claim of the paper (and each figure/table with an empirical
// counterpart) it runs a parameter sweep and reports measured times, so
// the *shape* of every tractability statement can be checked against the
// implementation (quasilinear preprocessing, logarithmic access, linear
// selection, and the widening gap to the materialize-everything baseline
// on the intractable side).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/decompose"
	"rankedaccess/internal/enum"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/selection"
	"rankedaccess/internal/ucq"
	"rankedaccess/internal/workload"
)

// Table is a rendered experiment: a header row plus data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
func us(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1000) }

// timeAccesses measures the mean per-access time over m random indices.
func timeAccesses(la *access.Lex, rng *rand.Rand, m int) time.Duration {
	if la.Total() == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < m; i++ {
		if _, err := la.Access(rng.Int63n(la.Total())); err != nil {
			panic(err)
		}
	}
	return time.Since(start) / time.Duration(m)
}

// Theorem33 sweeps n for direct access by a full lexicographic order on
// the 2-path query: preprocessing should grow quasilinearly, per-access
// time should stay near-constant (logarithmic), while the baseline
// (materialize + sort) grows with the answer count.
func Theorem33(ns []int, accesses int, seed int64) Table {
	t := Table{
		Title:  "Theorem 3.3 — direct access by LEX ⟨x,y,z⟩ on the 2-path (⟨n log n, log n⟩ claim)",
		Header: []string{"n", "answers", "preprocess_ms", "access_us", "baseline_materialize_ms"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q, in := workload.TwoPath(rng, n, max(n/8, 2), 0.3)
		l, _ := order.ParseLex(q, "x, y, z")
		start := time.Now()
		la, err := access.BuildLex(q, in, l)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		acc := timeAccesses(la, rng, accesses)

		start = time.Now()
		answers := baseline.SortedByLex(q, in, la.Completed)
		base := time.Since(start)
		if int64(len(answers)) != la.Total() {
			panic("baseline disagrees with structure count")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(la.Total()), ms(prep), us(acc), ms(base),
		})
	}
	return t
}

// Theorem41 sweeps n for a *partial* order on the Cartesian-product
// query Q3 (the Section 2.5 example no earlier structure supports).
func Theorem41(ns []int, accesses int, seed int64) Table {
	t := Table{
		Title:  "Theorem 4.1 — direct access by partial LEX ⟨v1,v2⟩ on Q3(v1..v4) :- R(v1,v3), S(v2,v4)",
		Header: []string{"n", "answers", "preprocess_ms", "access_us"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q := cq.MustParse("Q3(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)")
		in := database.NewInstance()
		for i := 0; i < n; i++ {
			in.AddRow("R", rng.Int63n(int64(max(n/8, 2))), rng.Int63n(int64(max(n/8, 2))))
			in.AddRow("S", rng.Int63n(int64(max(n/8, 2))), rng.Int63n(int64(max(n/8, 2))))
		}
		l, _ := order.ParseLex(q, "v1, v2")
		start := time.Now()
		la, err := access.BuildLex(q, in, l)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		acc := timeAccesses(la, rng, accesses)
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(la.Total()), ms(prep), us(acc)})
	}
	return t
}

// Theorem51 sweeps n for direct access by SUM in the tractable class
// (one atom covers the free variables): ⟨n log n, 1⟩.
func Theorem51(ns []int, accesses int, seed int64) Table {
	t := Table{
		Title:  "Theorem 5.1 — direct access by SUM, free variables inside one atom (⟨n log n, 1⟩ claim)",
		Header: []string{"n", "answers", "preprocess_ms", "access_us"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q, in, w := workload.SingleAtomCover(rng, n, max(n/4, 2))
		start := time.Now()
		sa, err := access.BuildSum(q, in, w)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		var acc time.Duration
		if sa.Total() > 0 {
			start = time.Now()
			for i := 0; i < accesses; i++ {
				if _, err := sa.Access(rng.Int63n(sa.Total())); err != nil {
					panic(err)
				}
			}
			acc = time.Since(start) / time.Duration(accesses)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(sa.Total()), ms(prep), us(acc)})
	}
	return t
}

// Theorem61 sweeps n for selection by the trio order ⟨x,z,y⟩ on the
// 2-path — the case where direct access is impossible but a single
// access costs O(n).
func Theorem61(ns []int, seed int64) Table {
	t := Table{
		Title:  "Theorem 6.1 — selection by LEX ⟨x,z,y⟩ on the 2-path (⟨1, n⟩ claim; DA is intractable here)",
		Header: []string{"n", "answers", "selection_ms (median)"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q, in := workload.TwoPath(rng, n, max(n/8, 2), 0.3)
		l, _ := order.ParseLex(q, "x, z, y")
		count, err := selection.CountAnswers(q, in)
		if err != nil {
			panic(err)
		}
		var sel time.Duration
		if count > 0 {
			start := time.Now()
			if _, err := selection.SelectLex(q, in, l, nil, count/2); err != nil {
				panic(err)
			}
			sel = time.Since(start)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(count), ms(sel)})
	}
	return t
}

// Theorem73 sweeps n for selection by SUM on the 2-path (fmh = 2,
// tractable) and contrasts the full 3-path (fmh = 3), where only the
// baseline is available and its cost tracks the answer count.
func Theorem73(ns []int, seed int64) Table {
	t := Table{
		Title:  "Theorem 7.3 — selection by SUM: 2-path (fmh=2, ⟨1, n log n⟩) vs full 3-path (fmh=3, baseline only)",
		Header: []string{"n", "2path_answers", "2path_select_ms", "3path_answers", "3path_baseline_ms"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q, in := workload.TwoPath(rng, n, max(n/8, 2), 0.3)
		w := order.IdentitySum(q.Head...)
		count, err := selection.CountAnswers(q, in)
		if err != nil {
			panic(err)
		}
		var sel time.Duration
		if count > 0 {
			start := time.Now()
			if _, err := selection.SelectSum(q, in, w, nil, count/2); err != nil {
				panic(err)
			}
			sel = time.Since(start)
		}
		// Full 3-path baseline at matched input size.
		q3, in3 := workload.KPath(rng, 3, n, max(n/8, 2), 0.3)
		w3 := order.IdentitySum(q3.Head...)
		start := time.Now()
		answers3 := baseline.SortedBySum(q3, in3, w3)
		base := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(count), ms(sel),
			fmt.Sprint(len(answers3)), ms(base),
		})
	}
	return t
}

// Fig8Hardness contrasts the two sides of Figure 8 empirically: the
// tractable α_free = 1 class (structure access) against the α_free = 2
// class of Example 5.3, where only materialization is available and the
// answer count is n², so the baseline scales quadratically.
func Fig8Hardness(ns []int, seed int64) Table {
	t := Table{
		Title:  "Figure 8 — DA by SUM: α_free=1 structure vs α_free=2 baseline (Example 5.3 instances)",
		Header: []string{"n", "alpha1_preprocess_ms", "alpha1_access_us", "alpha2_answers", "alpha2_baseline_ms"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q1, in1, w1 := workload.SingleAtomCover(rng, n, max(n/4, 2))
		start := time.Now()
		sa, err := access.BuildSum(q1, in1, w1)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		var acc time.Duration
		if sa.Total() > 0 {
			start = time.Now()
			for i := 0; i < 1000; i++ {
				_, _ = sa.Access(rng.Int63n(sa.Total()))
			}
			acc = time.Since(start) / 1000
		}
		q2, in2, w2 := workload.Example53Instance(n)
		start = time.Now()
		answers := baseline.SortedBySum(q2, in2, w2)
		base := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(prep), us(acc), fmt.Sprint(len(answers)), ms(base),
		})
	}
	return t
}

// RankedEnumContrast shows the §5 contrast: ranked enumeration by SUM on
// the 2-path reaches the top-k answers in time ~k log n after quasilinear
// preprocessing, while direct access by SUM is impossible; the baseline
// must materialize and sort everything even for small k.
func RankedEnumContrast(ns []int, k int64, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("§5 contrast — top-%d by SUM on the 2-path: any-k enumeration vs full materialize+sort", k),
		Header: []string{"n", "answers", "anyk_prep_ms", fmt.Sprintf("anyk_top%d_ms", k), "baseline_full_ms"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q, in := workload.TwoPath(rng, n, max(n/8, 2), 0.3)
		w := order.IdentitySum(q.Head...)
		start := time.Now()
		e, err := enum.NewSumEnumerator(q, in, w)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		start = time.Now()
		answers, _ := e.Drain(k)
		topk := time.Since(start)
		start = time.Now()
		all := baseline.SortedBySum(q, in, w)
		base := time.Since(start)
		_ = answers
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(all)), ms(prep), ms(topk), ms(base),
		})
	}
	return t
}

// FDRescue measures Example 8.3 end to end: the non-free-connex 2-path
// projection becomes directly accessible under the FD S: y → z.
func FDRescue(ns []int, accesses int, seed int64) Table {
	t := Table{
		Title:  "§8 — Example 8.3: Q(x,z) :- R(x,y), S(y,z) with FD S: y→z (direct access on Q⁺)",
		Header: []string{"n", "answers", "preprocess_ms", "access_us"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
		fds := fd.MustParse(q, "S: y -> z")
		in := database.NewInstance()
		dom := int64(max(n/8, 2))
		for i := 0; i < n; i++ {
			in.AddRow("R", rng.Int63n(dom), rng.Int63n(dom))
		}
		for y := int64(0); y < dom; y++ {
			in.AddRow("S", y, rng.Int63n(dom)) // one z per y: satisfies the FD
		}
		l, _ := order.ParseLex(q, "x, z")
		start := time.Now()
		la, err := access.BuildLexFD(q, in, l, fds)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		acc := timeAccesses(la, rng, accesses)
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(la.Total()), ms(prep), us(acc)})
	}
	return t
}

// Epidemic runs the introduction's scenario end to end: quantile queries
// on Visits ⋈ Cases under the tractable order (cases, city, age).
func Epidemic(ns []int, seed int64) Table {
	t := Table{
		Title:  "Introduction — Visits ⋈ Cases by (cases desc, city, age): build + quantiles",
		Header: []string{"n_visits", "answers", "preprocess_ms", "median_access_us", "p99_access_us"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		q, in := workload.Epidemic(rng, n, n/2, max(n/20, 2), max(n/100, 2), 1000)
		l, _ := order.ParseLex(q, "cases desc, city, age")
		start := time.Now()
		la, err := access.BuildLex(q, in, l)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		var med, p99 time.Duration
		if la.Total() > 0 {
			start = time.Now()
			_, _ = la.Access(la.Total() / 2)
			med = time.Since(start)
			start = time.Now()
			_, _ = la.Access(la.Total() * 99 / 100)
			p99 = time.Since(start)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(la.Total()), ms(prep), us(med), us(p99),
		})
	}
	return t
}

// TriangleDecomposition measures the Applicability route for cyclic
// queries: bag materialization plus layered-structure build for the
// triangle query, against the plain materialize+sort baseline.
func TriangleDecomposition(ns []int, seed int64) Table {
	t := Table{
		Title:  "Applicability — cyclic triangle via width-2 decomposition vs materialize+sort",
		Header: []string{"n", "answers", "decompose+build_ms", "access_us", "baseline_ms"},
	}
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		in := database.NewInstance()
		dom := int64(max(n/8, 2))
		for i := 0; i < n; i++ {
			in.AddRow("R", rng.Int63n(dom), rng.Int63n(dom))
			in.AddRow("S", rng.Int63n(dom), rng.Int63n(dom))
			in.AddRow("T", rng.Int63n(dom), rng.Int63n(dom))
		}
		start := time.Now()
		res, err := decompose.MakeAcyclic(q, in, 2)
		if err != nil {
			panic(err)
		}
		l, _ := order.ParseLex(res.Query, "x, y, z")
		la, err := access.BuildLex(res.Query, res.Instance, l)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		var acc time.Duration
		if la.Total() > 0 {
			acc = timeAccesses(la, rng, 200)
		}
		start = time.Now()
		answers := baseline.SortedByLex(q, in, la.Completed)
		base := time.Since(start)
		if int64(len(answers)) != la.Total() {
			panic("decomposition disagrees with baseline count")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(la.Total()), ms(prep), us(acc), ms(base),
		})
	}
	return t
}

// UnionAccess measures the UCQ extension: direct access into the
// deduplicated union of two join queries.
func UnionAccess(ns []int, seed int64) Table {
	t := Table{
		Title:  "UCQ extension — union of two join queries, deduplicated direct access",
		Header: []string{"n", "union_answers", "preprocess_ms", "access_us"},
	}
	q1 := cq.MustParse("Q1(p, via, q) :- Desk(p, via), Meets(via, q)")
	q2 := cq.MustParse("Q2(p, via, q) :- Slot(p, via), SlotOf(via, q)")
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed))
		in := database.NewInstance()
		people, hubs := int64(max(n/8, 2)), int64(max(n/32, 2))
		for i := 0; i < n; i++ {
			in.AddRow("Desk", rng.Int63n(people), rng.Int63n(hubs))
			in.AddRow("Meets", rng.Int63n(hubs), rng.Int63n(people))
			in.AddRow("Slot", rng.Int63n(people), rng.Int63n(hubs))
			in.AddRow("SlotOf", rng.Int63n(hubs), rng.Int63n(people))
		}
		l, _ := order.ParseLex(q1, "p, via, q")
		start := time.Now()
		u, err := ucq.BuildUnion([]*cq.Query{q1, q2}, in, l)
		if err != nil {
			panic(err)
		}
		prep := time.Since(start)
		var acc time.Duration
		if u.Total() > 0 {
			start = time.Now()
			const probes = 200
			for i := 0; i < probes; i++ {
				if _, err := u.Access(rng.Int63n(u.Total())); err != nil {
					panic(err)
				}
			}
			acc = time.Since(start) / probes
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(u.Total()), ms(prep), us(acc),
		})
	}
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
