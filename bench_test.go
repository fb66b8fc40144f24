// Benchmarks regenerating the empirical counterpart of every figure,
// table, and theorem-level complexity claim in the paper. Run with
//
//	go test -bench=. -benchmem
//
// and compare shapes across the /n=... sub-benchmarks: tractable-side
// preprocessing grows quasilinearly, access stays flat/logarithmic,
// selection grows (quasi)linearly, and the baselines grow with the
// answer-set size.
package rankedaccess

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/baseline"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/enum"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/par"
	"rankedaccess/internal/selection"
	"rankedaccess/internal/workload"
)

var sizes = []int{1 << 12, 1 << 14, 1 << 16}

// --- Theorem 3.3 (Figure 1, DA-LEX tractable side): ⟨n log n, log n⟩ ---

func BenchmarkThm33_Preprocess(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			q, in := workload.TwoPath(rng, n, n/8, 0.3)
			l, _ := order.ParseLex(q, "x, y, z")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := access.BuildLex(q, in, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkThm33_Access(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			q, in := workload.TwoPath(rng, n, n/8, 0.3)
			l, _ := order.ParseLex(q, "x, y, z")
			la, err := access.BuildLex(q, in, l)
			if err != nil {
				b.Fatal(err)
			}
			if la.Total() == 0 {
				b.Fatal("empty join")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := la.Access(rng.Int63n(la.Total())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLexAppendRange scans windows of consecutive ranks through
// one probe buffer: a descent to the first rank, a successor step
// (Remark 3) for every later one, so ns/row falls as the window grows.
// The bounded number is the ladder's access.lex_range_ns_per_row.
func BenchmarkLexAppendRange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q, in := workload.TwoPath(rng, 1<<14, 1<<11, 0.3)
	l, _ := order.ParseLex(q, "x, y, z")
	la, err := access.BuildLex(q, in, l)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int64{16, 512, 65536} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			if la.Total() < rows {
				b.Skipf("%d answers", la.Total())
			}
			var dst []Value
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k0 := rng.Int63n(la.Total() - rows + 1)
				if dst, err = la.AppendRange(dst[:0], k0, k0+rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*rows), "ns/row")
		})
	}
}

func BenchmarkThm33_InvertedAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q, in := workload.TwoPath(rng, 1<<14, 1<<11, 0.3)
	l, _ := order.ParseLex(q, "x, y, z")
	la, err := access.BuildLex(q, in, l)
	if err != nil {
		b.Fatal(err)
	}
	answers := make([]order.Answer, 256)
	for i := range answers {
		answers[i], _ = la.Access(rng.Int63n(la.Total()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.Inverted(answers[i%len(answers)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Theorem 4.1 (partial orders, the §2.5 Q3 example) ---

func BenchmarkThm41_PartialLexAccess(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			q := MustParseQuery("Q3(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)")
			in := NewInstance()
			for i := 0; i < n; i++ {
				in.AddRow("R", rng.Int63n(int64(n/8)), rng.Int63n(int64(n/8)))
				in.AddRow("S", rng.Int63n(int64(n/8)), rng.Int63n(int64(n/8)))
			}
			l, _ := order.ParseLex(q, "v1, v2")
			la, err := access.BuildLex(q, in, l)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := la.Access(rng.Int63n(la.Total())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §2.5 catalog: Q5 and Q6, unsupported by all prior structures ---

func BenchmarkQ5Q6_Access(b *testing.B) {
	cases := []struct{ name, src, ord string }{
		{"Q5", "Q5(v1, v2, v3, v4, v5) :- R1(v1, v3), R2(v3, v4), R3(v2, v5)", "v1, v2, v3, v4, v5"},
		{"Q6", "Q6(v1, v2, v3, v4, v5) :- R1(v1, v2, v4), R2(v2, v3, v5)", "v1, v2, v3, v4, v5"},
	}
	n := 1 << 14
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			q := MustParseQuery(c.src)
			in := NewInstance()
			for _, a := range q.Atoms {
				if in.Relation(a.Rel) != nil {
					continue
				}
				for i := 0; i < n; i++ {
					row := make([]Value, len(a.Vars))
					for j := range row {
						row[j] = rng.Int63n(int64(n / 8))
					}
					in.AddRow(a.Rel, row...)
				}
			}
			l, _ := order.ParseLex(q, c.ord)
			la, err := access.BuildLex(q, in, l)
			if err != nil {
				b.Fatal(err)
			}
			if la.Total() == 0 {
				b.Skip("empty join at this seed")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := la.Access(rng.Int63n(la.Total())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Theorem 5.1 (Figure 8 tractable row): DA by SUM in ⟨n log n, 1⟩ ---

func BenchmarkThm51_SumPreprocess(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			q, in, w := workload.SingleAtomCover(rng, n, n/4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := access.BuildSum(q, in, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkThm51_SumAccess(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			q, in, w := workload.SingleAtomCover(rng, n, n/4)
			sa, err := access.BuildSum(q, in, w)
			if err != nil {
				b.Fatal(err)
			}
			if sa.Total() == 0 {
				b.Skip("empty")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sa.Access(rng.Int63n(sa.Total())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Theorem 6.1: selection by LEX in ⟨1, n⟩ on a DA-intractable order ---

func BenchmarkThm61_SelectionLex(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			q, in := workload.TwoPath(rng, n, n/8, 0.3)
			l, _ := order.ParseLex(q, "x, z, y")
			count, err := selection.CountAnswers(q, in)
			if err != nil || count == 0 {
				b.Fatal("bad workload")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := selection.SelectLex(q, in, l, nil, count/2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Theorem 7.3: selection by SUM in ⟨1, n log n⟩ (fmh = 2) ---

func BenchmarkThm73_SelectionSum(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			q, in := workload.TwoPath(rng, n, n/8, 0.3)
			w := order.IdentitySum(q.Head...)
			count, err := selection.CountAnswers(q, in)
			if err != nil || count == 0 {
				b.Fatal("bad workload")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := selection.SelectSum(q, in, w, nil, count/2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// X + Y selection (the Frederickson–Johnson setting of Theorem 7.9).
func BenchmarkThm79_XYSelection(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			q, in, w := workload.Product(rng, n)
			total := int64(n) * int64(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := selection.SelectSum(q, in, w, nil, total/2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 8 hard side: α_free = 2 baseline (quadratic answer count) ---

func BenchmarkFig8_Alpha2_BaselineMaterialize(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q, in, w := workload.Example53Instance(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				answers := baseline.SortedBySum(q, in, w)
				if len(answers) != n*n {
					b.Fatal("unexpected answer count")
				}
			}
		})
	}
}

// 3SUM via direct access on the hard instance family (Lemma 5.7's
// reduction run through the baseline, since the structure is impossible).
func BenchmarkFig8_Alpha3_ThreeSumBaseline(b *testing.B) {
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			av, bv, cv := workload.RandomThreeSum(rng, n, true)
			q, in, w := workload.ThreeSumInstance(av, bv, cv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				answers := baseline.SortedBySum(q, in, w)
				if len(answers) != n*n*n {
					b.Fatal("unexpected answer count")
				}
			}
		})
	}
}

// --- §5 contrast: ranked enumeration by SUM where DA by SUM is hard ---

func BenchmarkRankedEnum_Top100(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			q, in := workload.TwoPath(rng, n, n/8, 0.3)
			w := order.IdentitySum(q.Head...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := enum.NewSumEnumerator(q, in, w)
				if err != nil {
					b.Fatal(err)
				}
				answers, _ := e.Drain(100)
				if len(answers) == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// BenchmarkRankedEnum_Delay is the time between two consecutive answers
// of a ranked enumeration: by SUM (any-k, a heap operation per answer)
// and by a lexicographic order (enum.RankedLex: a successor step and a
// copy per answer).
func BenchmarkRankedEnum_Delay(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	q, in := workload.TwoPath(rng, 1<<14, 1<<11, 0.3)
	b.Run("sum", func(b *testing.B) {
		w := order.IdentitySum(q.Head...)
		e, err := enum.NewSumEnumerator(q, in, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := e.Next(); !ok {
				b.StopTimer()
				e, _ = enum.NewSumEnumerator(q, in, w)
				b.StartTimer()
			}
		}
	})
	b.Run("lex", func(b *testing.B) {
		l, _ := order.ParseLex(q, "x, y, z")
		la, err := access.BuildLex(q, in, l)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; {
			if err := enum.RankedLex(la, func(int64, order.Answer) bool {
				n++
				return n < b.N
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Baseline: materialize + sort (what DA replaces) ---

func BenchmarkBaseline_MaterializeSortLex(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			q, in := workload.TwoPath(rng, n, n/8, 0.3)
			l, _ := order.ParseLex(q, "x, y, z")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(baseline.SortedByLex(q, in, l)) == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// --- §8: the FD machinery end to end (Example 8.3 at scale) ---

func BenchmarkSec8_FDExtensionBuild(b *testing.B) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			q := MustParseQuery("Q(x, z) :- R(x, y), S(y, z)")
			fds := fd.MustParse(q, "S: y -> z")
			in := NewInstance()
			dom := int64(n / 8)
			for i := 0; i < n; i++ {
				in.AddRow("R", rng.Int63n(dom), rng.Int63n(dom))
			}
			for y := int64(0); y < dom; y++ {
				in.AddRow("S", y, rng.Int63n(dom))
			}
			l, _ := order.ParseLex(q, "x, z")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := access.BuildLexFD(q, in, l, fds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Classification itself (decidability in query size) ---

func BenchmarkClassify_AllProblems(b *testing.B) {
	q := MustParseQuery("Q5(v1, v2, v3, v4, v5) :- R1(v1, v3), R2(v3, v4), R3(v2, v5)")
	l, _ := order.ParseLex(q, "v1, v2, v3, v4, v5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = classify.DirectAccessLex(q, l, nil)
		_, _ = classify.SelectionLex(q, l, nil)
		_, _ = classify.DirectAccessSum(q, nil)
		_, _ = classify.SelectionSum(q, nil)
	}
}

// --- "Applicability": cyclic queries via decomposition ---

func BenchmarkApplicability_TriangleViaDecomposition(b *testing.B) {
	for _, n := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(17))
			q := MustParseQuery("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
			in := NewInstance()
			dom := int64(n / 8)
			for i := 0; i < n; i++ {
				in.AddRow("R", rng.Int63n(dom), rng.Int63n(dom))
				in.AddRow("S", rng.Int63n(dom), rng.Int63n(dom))
				in.AddRow("T", rng.Int63n(dom), rng.Int63n(dom))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := MakeAcyclic(q, in, 2)
				if err != nil {
					b.Fatal(err)
				}
				l, _ := ParseLex(res.Query, "x, y, z")
				la, err := access.BuildLex(res.Query, res.Instance, l)
				if err != nil {
					b.Fatal(err)
				}
				if la.Total() > 0 {
					if _, err := la.Access(la.Total() / 2); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- UCQ extension: union direct access ([15]'s generalization) ---

func BenchmarkUnion_Access(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	q1 := MustParseQuery("Q1(p, via, q) :- Desk(p, via), Meets(via, q)")
	q2 := MustParseQuery("Q2(p, via, q) :- Slot(p, via), SlotOf(via, q)")
	in := NewInstance()
	for i := 0; i < 1<<13; i++ {
		in.AddRow("Desk", rng.Int63n(1<<10), rng.Int63n(1<<7))
		in.AddRow("Meets", rng.Int63n(1<<7), rng.Int63n(1<<10))
		in.AddRow("Slot", rng.Int63n(1<<10), rng.Int63n(1<<8))
		in.AddRow("SlotOf", rng.Int63n(1<<8), rng.Int63n(1<<10))
	}
	l, _ := ParseLex(q1, "p, via, q")
	u, err := NewUnionAccess([]*Query{q1, q2}, in, l)
	if err != nil {
		b.Fatal(err)
	}
	if u.Total() == 0 {
		b.Skip("empty union")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Access(rng.Int63n(u.Total())); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations for the design choices DESIGN.md calls out ---

// Access cost as a function of query size (number of layers): the k-path
// sweep isolates the per-layer constant of Algorithm 1.
func BenchmarkAblation_AccessVsPathLength(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			q, in := workload.KPath(rng, k, 1<<13, 1<<9, 0.2)
			var names []string
			for i := 0; i <= k; i++ {
				names = append(names, fmt.Sprintf("x%d", i))
			}
			l, _ := order.ParseLex(q, joinComma(names))
			la, err := access.BuildLex(q, in, l)
			if err != nil {
				b.Fatal(err)
			}
			if la.Total() == 0 {
				b.Skip("empty join")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := la.Access(rng.Int63n(la.Total())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// Deterministic median-of-medians weighted selection vs sort-based
// selection: the O(n) primitive of Lemma 6.6 against the O(n log n)
// obvious alternative.
func BenchmarkAblation_WeightedSelect(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(14))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 30)
	}
	b.Run("median-of-medians", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			items := make([]selection.WItem[int64], n)
			for j, k := range keys {
				items[j] = selection.WItem[int64]{Key: k, Weight: 1}
			}
			if _, _, ok := selection.WeightedSelect(items, int64(n/2)); !ok {
				b.Fatal("selection failed")
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp := append([]int64(nil), keys...)
			sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
			_ = cp[n/2]
		}
	})
}

// Materialized fallback vs layered structure on a tractable input: the
// cost of ignoring the classification.
func BenchmarkAblation_MaterializedVsLayered(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	q, in := workload.TwoPath(rng, 1<<13, 1<<10, 0.3)
	l, _ := order.ParseLex(q, "x, y, z")
	b.Run("layered_build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := access.BuildLex(q, in, l); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize_build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := access.BuildMaterializedLex(q, in, l)
			if m.Total() == 0 {
				b.Fatal("no answers")
			}
		}
	})
}

// --- Engine: cold build-and-access vs cached access ---

// Cold pays the O(n log n) preprocessing on every request (the version
// bump purges the cache); cached pays a map lookup plus one O(log n)
// access. The gap is the whole point of the serving engine.
func BenchmarkEngine_ColdVsCached(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	_, in := workload.TwoPath(rng, 1<<14, 1<<11, 0.3)
	spec := engine.Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	probe := func(b *testing.B, e *engine.Engine) {
		h, err := e.Prepare(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Access(h.Total() / 2); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		e := engine.New(in, engine.Options{})
		for i := 0; i < b.N; i++ {
			e.Mutate(func(*database.Instance) {}) // invalidate: forces a rebuild
			probe(b, e)
		}
	})
	b.Run("cached", func(b *testing.B) {
		e := engine.New(in, engine.Options{})
		probe(b, e) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probe(b, e)
		}
	})
}

// --- Parallel preprocessing: worker fan-out vs pinned-serial ---

func BenchmarkPreprocess_SerialVsParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	q, in := workload.TwoPath(rng, 1<<16, 1<<13, 0.3)
	l, _ := order.ParseLex(q, "x, y, z")
	for _, mode := range []struct {
		name  string
		limit int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			par.SetLimit(mode.limit)
			defer par.SetLimit(0)
			for i := 0; i < b.N; i++ {
				if _, err := access.BuildLex(q, in, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Union construction builds 2^m − 1 member structures — the widest
// fan-out in the codebase.
func BenchmarkUnion_BuildSerialVsParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	q1 := MustParseQuery("Q1(p, via, q) :- Desk(p, via), Meets(via, q)")
	q2 := MustParseQuery("Q2(p, via, q) :- Slot(p, via), SlotOf(via, q)")
	in := NewInstance()
	for i := 0; i < 1<<13; i++ {
		in.AddRow("Desk", rng.Int63n(1<<10), rng.Int63n(1<<7))
		in.AddRow("Meets", rng.Int63n(1<<7), rng.Int63n(1<<10))
		in.AddRow("Slot", rng.Int63n(1<<10), rng.Int63n(1<<8))
		in.AddRow("SlotOf", rng.Int63n(1<<8), rng.Int63n(1<<10))
	}
	l, _ := ParseLex(q1, "p, via, q")
	for _, mode := range []struct {
		name  string
		limit int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			par.SetLimit(mode.limit)
			defer par.SetLimit(0)
			for i := 0; i < b.N; i++ {
				if _, err := NewUnionAccess([]*Query{q1, q2}, in, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Introduction scenario at scale ---

func BenchmarkEpidemic_QuantileAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	q, in := workload.Epidemic(rng, 1<<16, 1<<15, 1<<12, 256, 1000)
	l, _ := order.ParseLex(q, "cases desc, city, age")
	la, err := access.BuildLex(q, in, l)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.Access(rng.Int63n(la.Total())); err != nil {
			b.Fatal(err)
		}
	}
}
