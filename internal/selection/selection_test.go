package selection

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

func lex(t *testing.T, q *cq.Query, s string) order.Lex {
	t.Helper()
	l, err := order.ParseLex(q, s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

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

func randomInstance(q *cq.Query, rng *rand.Rand, maxRows, domain int) *database.Instance {
	in := database.NewInstance()
	for _, a := range q.Atoms {
		if in.Relation(a.Rel) != nil {
			continue
		}
		in.SetRelation(a.Rel, database.NewRelation(len(a.Vars)))
		rows := rng.Intn(maxRows + 1)
		for r := 0; r < rows; r++ {
			row := make([]values.Value, len(a.Vars))
			for c := range row {
				row[c] = values.Value(rng.Intn(domain))
			}
			in.AddRow(a.Rel, row...)
		}
	}
	return in
}

// --- weighted selection primitive ---

func TestWeightedSelectBasic(t *testing.T) {
	items := []WItem[int64]{{Key: 5, Weight: 2}, {Key: 1, Weight: 3}, {Key: 9, Weight: 1}}
	// Sorted expansion: 1,1,1,5,5,9.
	wantKeys := []int64{1, 1, 1, 5, 5, 9}
	wantBefore := []int64{0, 0, 0, 3, 3, 5}
	for k := range wantKeys {
		cp := append([]WItem[int64](nil), items...)
		key, before, ok := WeightedSelect(cp, int64(k))
		if !ok || key != wantKeys[k] || before != wantBefore[k] {
			t.Fatalf("k=%d: (%d, %d, %v), want (%d, %d)", k, key, before, ok, wantKeys[k], wantBefore[k])
		}
	}
	if _, _, ok := WeightedSelect(append([]WItem[int64](nil), items...), 6); ok {
		t.Fatal("k = total must fail")
	}
	if _, _, ok := WeightedSelect(append([]WItem[int64](nil), items...), -1); ok {
		t.Fatal("negative k must fail")
	}
}

func TestWeightedSelectQuick(t *testing.T) {
	f := func(keys []int16, seed int64) bool {
		if len(keys) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		items := make([]WItem[int64], len(keys))
		expanded := []int64{}
		for i, x := range keys {
			wgt := int64(1 + rng.Intn(3))
			items[i] = WItem[int64]{Key: int64(x), Weight: wgt}
			for j := int64(0); j < wgt; j++ {
				expanded = append(expanded, int64(x))
			}
		}
		sort.Slice(expanded, func(i, j int) bool { return expanded[i] < expanded[j] })
		k := rng.Int63n(int64(len(expanded)))
		cp := append([]WItem[int64](nil), items...)
		key, before, ok := WeightedSelect(cp, k)
		if !ok || key != expanded[k] {
			return false
		}
		// before = #expanded strictly smaller than key.
		var want int64
		for _, x := range expanded {
			if x < key {
				want++
			}
		}
		return before == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNth(t *testing.T) {
	keys := []float64{3.5, -1, 7, 3.5, 0}
	sorted := append([]float64(nil), keys...)
	sort.Float64s(sorted)
	for k := range sorted {
		got, ok := Nth(keys, int64(k))
		if !ok || got != sorted[k] {
			t.Fatalf("Nth(%d) = %v, want %v", k, got, sorted[k])
		}
	}
	if _, ok := Nth(keys, 5); ok {
		t.Fatal("out of range Nth must fail")
	}
}

// --- LEX selection ---

// Example 6.2: ⟨v1,v2,v3⟩ and partial ⟨v1,v2⟩ on R(v1,v3),S(v3,v2) are
// both tractable for selection despite being intractable for direct
// access.
func TestSelectLexExample62(t *testing.T) {
	q := cq.MustParse("Q(v1, v2, v3) :- R(v1, v3), S(v3, v2)")
	in := database.NewInstance()
	in.AddRow("R", 1, 10)
	in.AddRow("R", 2, 10)
	in.AddRow("R", 2, 20)
	in.AddRow("S", 10, 5)
	in.AddRow("S", 10, 6)
	in.AddRow("S", 20, 5)
	for _, ord := range []string{"v1, v2, v3", "v1, v2"} {
		l := lex(t, q, ord)
		// Build the deterministic completion used by SelectLex: l's
		// variables then the remaining free ones ascending.
		full := completeForTest(q, l)
		want := baseline.SortedByLex(q, in, full)
		for k := range want {
			got, err := SelectLex(q, in, l, nil, int64(k))
			if err != nil {
				t.Fatalf("⟨%s⟩ k=%d: %v", ord, k, err)
			}
			if !reflect.DeepEqual(proj(q, got), proj(q, want[k])) {
				t.Fatalf("⟨%s⟩ k=%d: %v, want %v", ord, k, proj(q, got), proj(q, want[k]))
			}
		}
		if _, err := SelectLex(q, in, l, nil, int64(len(want))); !errors.Is(err, ErrOutOfBound) {
			t.Fatalf("out of bound expected, got %v", err)
		}
	}
}

// completeForTest mirrors SelectLex's internal completion.
func completeForTest(q *cq.Query, l order.Lex) order.Lex {
	completed := append([]order.LexEntry(nil), l.Entries...)
	seen := uint64(0)
	for _, e := range completed {
		seen |= 1 << uint(e.Var)
	}
	for v := 0; v < q.NumVars(); v++ {
		bit := uint64(1) << uint(v)
		if q.Free()&bit != 0 && seen&bit == 0 {
			completed = append(completed, order.LexEntry{Var: cq.VarID(v)})
		}
	}
	return order.Lex{Entries: completed}
}

func TestSelectLexNotFreeConnexRejected(t *testing.T) {
	q := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	_, err := SelectLex(q, fig2(), lex(t, q, "x, z"), nil, 0)
	var ie *IntractableError
	if !errors.As(err, &ie) {
		t.Fatalf("expected IntractableError, got %v", err)
	}
}

func TestSelectLexRandomAgainstOracle(t *testing.T) {
	catalog := []struct{ src, order string }{
		{"Q(x, y, z) :- R(x, y), S(y, z)", "x, z, y"}, // disruptive trio: DA hard, selection fine
		{"Q(x, y, z) :- R(x, y), S(y, z)", "x, z"},    // not L-connex: same
		{"Q(x, y, z) :- R(x, y), S(y, z)", "z desc, x"},
		{"Q(x, y) :- R(x, y), S(y, z)", "y, x"},
		{"Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)", "x, u, z, y"},
		{"Q3(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)", "v3, v2"},
		{"Q(x, y) :- R(x), S(y)", "y desc, x desc"},
		// A self-join: with no FDs the instance is read as it is, never
		// extended (fd.Extension.ExtendInstance refuses self-joins).
		{"Q(x, y, z) :- R(x, y), R(y, z)", "x, y, z"},
	}
	rng := rand.New(rand.NewSource(21))
	for _, c := range catalog {
		q := cq.MustParse(c.src)
		l := lex(t, q, c.order)
		for trial := 0; trial < 20; trial++ {
			in := randomInstance(q, rng, 6, 4)
			want := baseline.SortedByLex(q, in, completeForTest(q, l))
			for k := 0; k < len(want); k++ {
				got, err := SelectLex(q, in, l, nil, int64(k))
				if err != nil {
					t.Fatalf("%s ⟨%s⟩ k=%d: %v", c.src, c.order, k, err)
				}
				if !reflect.DeepEqual(proj(q, got), proj(q, want[k])) {
					t.Fatalf("%s ⟨%s⟩ k=%d: %v, want %v", c.src, c.order, k, proj(q, got), proj(q, want[k]))
				}
			}
			if _, err := SelectLex(q, in, l, nil, int64(len(want))); !errors.Is(err, ErrOutOfBound) {
				t.Fatalf("%s: out of bound expected", c.src)
			}
		}
	}
}

func TestSelectLexBoolean(t *testing.T) {
	q := cq.MustParse("Q() :- R(x, y), S(y, z)")
	a, err := SelectLex(q, fig2(), order.Lex{}, nil, 0)
	if err != nil || a == nil {
		t.Fatalf("Boolean select: %v", err)
	}
	if _, err := SelectLex(q, fig2(), order.Lex{}, nil, 1); !errors.Is(err, ErrOutOfBound) {
		t.Fatal("Boolean k=1 out of bound")
	}
}

func TestSelectLexFD(t *testing.T) {
	// Example 8.3: selection for the non-free-connex Q2P with FD.
	q := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	fds := fd.MustParse(q, "S: y -> z")
	in := database.NewInstance()
	in.AddRow("R", 1, 5)
	in.AddRow("R", 2, 5)
	in.AddRow("R", 2, 7)
	in.AddRow("S", 5, 30)
	in.AddRow("S", 7, 10)
	l := lex(t, q, "x, z")
	want := baseline.SortedByLex(q, in, l)
	for k := range want {
		got, err := SelectLex(q, in, l, fds, int64(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(proj(q, got), proj(q, want[k])) {
			t.Fatalf("k=%d: %v, want %v", k, proj(q, got), proj(q, want[k]))
		}
	}
	// Without the FD: rejected.
	if _, err := SelectLex(q, in, l, nil, 0); err == nil {
		t.Fatal("must be rejected without FDs")
	}
}

func TestCountAnswers(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	got, err := CountAnswers(q, fig2())
	if err != nil || got != 5 {
		t.Fatalf("count = %d, %v", got, err)
	}
	qb := cq.MustParse("Q() :- R(x, y), S(y, z)")
	got, err = CountAnswers(qb, fig2())
	if err != nil || got != 1 {
		t.Fatalf("Boolean count = %d, %v", got, err)
	}
}

// --- SUM selection ---

// sumOracle returns the sorted answer weights.
func sumOracle(q *cq.Query, in *database.Instance, w order.Sum) []float64 {
	answers := baseline.AllAnswers(q, in)
	ws := make([]float64, len(answers))
	for i, a := range answers {
		ws[i] = w.AnswerWeight(q, a)
	}
	sort.Float64s(ws)
	return ws
}

func identityAll(q *cq.Query) order.Sum {
	return order.IdentitySum(q.Head...)
}

// checkSumSelection verifies that for every k the selected answer is a
// genuine answer whose weight equals the k-th sorted weight. (Tie order
// inside an equal-weight class is implementation-defined, so weights are
// the contract.)
func checkSumSelection(t *testing.T, q *cq.Query, in *database.Instance, w order.Sum,
	sel func(k int64) (order.Answer, error)) {
	t.Helper()
	oracle := sumOracle(q, in, w)
	answerSet := map[string]bool{}
	for _, a := range baseline.AllAnswers(q, in) {
		answerSet[keyOf(q, a)] = true
	}
	seen := map[string]int{}
	for k := 0; k < len(oracle); k++ {
		a, err := sel(int64(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := w.AnswerWeight(q, a); got != oracle[k] {
			t.Fatalf("k=%d: weight %v, oracle %v", k, got, oracle[k])
		}
		if !answerSet[keyOf(q, a)] {
			t.Fatalf("k=%d: %v is not an answer", k, proj(q, a))
		}
		seen[keyOf(q, a)]++
	}
	// Each answer must be returned exactly once across all ranks.
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("answer %q returned %d times", key, n)
		}
	}
	if _, err := sel(int64(len(oracle))); !errors.Is(err, ErrOutOfBound) {
		t.Fatal("out of bound expected")
	}
}

func keyOf(q *cq.Query, a order.Answer) string {
	b := make([]byte, 0, 8*len(q.Head))
	for _, v := range q.Head {
		u := uint64(a[v])
		b = append(b, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return string(b)
}

func TestSelectSumTwoPath(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	w := identityAll(q)
	checkSumSelection(t, q, fig2(), w, func(k int64) (order.Answer, error) {
		return SelectSum(q, fig2(), w, nil, k)
	})
}

func TestSelectSumXY(t *testing.T) {
	// X + Y: the Cartesian product of two unary atoms (mh = 2, empty key).
	q := cq.MustParse("Q(x, y) :- R(x), S(y)")
	in := database.NewInstance()
	for _, v := range []values.Value{5, 1, 9, 3} {
		in.AddRow("R", v)
	}
	for _, v := range []values.Value{2, 8, 4} {
		in.AddRow("S", v)
	}
	w := identityAll(q)
	checkSumSelection(t, q, in, w, func(k int64) (order.Answer, error) {
		return SelectSum(q, in, w, nil, k)
	})
}

func TestSelectSumSingleAtom(t *testing.T) {
	q := cq.MustParse("Q(x, y) :- R(x, y), S(y)")
	in := database.NewInstance()
	in.AddRow("R", 1, 2)
	in.AddRow("R", 4, 2)
	in.AddRow("R", 2, 9)
	in.AddRow("S", 2)
	w := identityAll(q)
	checkSumSelection(t, q, in, w, func(k int64) (order.Answer, error) {
		return SelectSum(q, in, w, nil, k)
	})
}

func TestSelectSumIntractableRejected(t *testing.T) {
	q := cq.MustParse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)")
	in := randomInstance(q, rand.New(rand.NewSource(1)), 4, 3)
	_, err := SelectSum(q, in, identityAll(q), nil, 0)
	var ie *IntractableError
	if !errors.As(err, &ie) {
		t.Fatalf("3-path by SUM must be rejected: %v", err)
	}
}

func TestSelectSumRandomAgainstOracle(t *testing.T) {
	catalog := []string{
		"Q(x, y, z) :- R(x, y), S(y, z)",
		"Q(x, y) :- R(x), S(y)",
		"Q(x, y, z) :- R(x, y), S(y, z), T(z, u)", // fmh = 2 after projection
		"Q(x, y) :- R(x, y), S(y)",
		"Q(a, b, c) :- R(a, b), S(b, c), T(b)",
		"Q(x, u, y, z) :- R(x, u, y), S(y), T(y, z), U(x, u, y)", // Example 7.6
	}
	rng := rand.New(rand.NewSource(33))
	for _, src := range catalog {
		q := cq.MustParse(src)
		for trial := 0; trial < 15; trial++ {
			in := randomInstance(q, rng, 6, 4)
			// Random non-identity weights, including negatives and
			// repeated values to exercise tie handling.
			tables := map[cq.VarID]map[values.Value]float64{}
			for _, v := range q.Head {
				tab := map[values.Value]float64{}
				for d := values.Value(0); d < 4; d++ {
					tab[d] = float64(rng.Intn(7) - 3)
				}
				tables[v] = tab
			}
			w := order.TableSum(tables)
			checkSumSelection(t, q, in, w, func(k int64) (order.Answer, error) {
				return SelectSum(q, in, w, nil, k)
			})
		}
	}
}

func TestSelectSumFractionalWeights(t *testing.T) {
	// Weights engineered to stress float bisection: tiny differences.
	q := cq.MustParse("Q(x, y) :- R(x), S(y)")
	in := database.NewInstance()
	tabX := map[values.Value]float64{}
	tabY := map[values.Value]float64{}
	for v := values.Value(0); v < 8; v++ {
		in.AddRow("R", v)
		in.AddRow("S", v)
		tabX[v] = float64(v) * 1e-15
		tabY[v] = float64(v) * 1e-15 * (1 + 1e-16)
	}
	x, _ := q.VarByName("x")
	y, _ := q.VarByName("y")
	w := order.TableSum(map[cq.VarID]map[values.Value]float64{x: tabX, y: tabY})
	checkSumSelection(t, q, in, w, func(k int64) (order.Answer, error) {
		return SelectSum(q, in, w, nil, k)
	})
}

func TestSelectSumFD(t *testing.T) {
	// Example 8.3 by SUM: Q⁺ has one atom containing both free variables,
	// fmh = 1.
	q := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	fds := fd.MustParse(q, "S: y -> z")
	in := database.NewInstance()
	in.AddRow("R", 1, 5)
	in.AddRow("R", 2, 5)
	in.AddRow("R", 2, 7)
	in.AddRow("S", 5, 30)
	in.AddRow("S", 7, 10)
	x, _ := q.VarByName("x")
	z, _ := q.VarByName("z")
	w := order.IdentitySum(x, z)
	checkSumSelection(t, q, in, w, func(k int64) (order.Answer, error) {
		return SelectSum(q, in, w, fds, k)
	})
}

func TestSelectSumBoolean(t *testing.T) {
	q := cq.MustParse("Q() :- R(x, y), S(y, z)")
	if _, err := SelectSum(q, fig2(), order.NewSum(), nil, 0); err != nil {
		t.Fatalf("Boolean SUM select: %v", err)
	}
	if _, err := SelectSum(q, fig2(), order.NewSum(), nil, 1); !errors.Is(err, ErrOutOfBound) {
		t.Fatal("Boolean k=1 out of bound")
	}
}

func TestEncodeFMonotone(t *testing.T) {
	vals := []float64{-1e300, -2.5, -0.0, 0.0, 1e-300, 1, 2.5, 1e300}
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[i] < vals[j] && encodeF(vals[i]) >= encodeF(vals[j]) {
				t.Fatalf("encodeF not monotone at %v < %v", vals[i], vals[j])
			}
		}
	}
	for _, v := range vals {
		if got := decodeF(encodeF(v)); got != v && !(v == 0 && got == 0) {
			t.Fatalf("decode(encode(%v)) = %v", v, got)
		}
	}
}
