package selection

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rankedaccess/internal/baseline"
	"rankedaccess/internal/checked"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/reduce"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// A descending component is selected on ^val, which reverses the order
// of every int64; -val overflowed for math.MinInt64 and put it first.
func TestSelectLexDescMinInt64(t *testing.T) {
	q := cq.MustParse("Q(x) :- R(x)")
	in := database.NewInstance()
	for _, v := range []values.Value{math.MinInt64, 0, 5} {
		in.AddRow("R", v)
	}
	l := lex(t, q, "x desc")
	for k, want := range []values.Value{5, 0, math.MinInt64} {
		got, err := SelectLex(q, in, l, nil, int64(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got[0] != want {
			t.Fatalf("k=%d: %d, want %d", k, got[0], want)
		}
	}
	if _, err := SelectLex(q, in, l, nil, 3); !errors.Is(err, ErrOutOfBound) {
		t.Fatalf("k=3: %v, want ErrOutOfBound", err)
	}
}

// overflowStar is Q(x, w, u, a0..a7) :- R(x, w), T(w, u), A0(u, a0), …,
// A7(u, a7). R's row (1, 5) joins T's row (5, 1), whose star yields two
// answers. Under u = 7 every Ai holds fan rows, so T's row (9, 7) roots
// fan^8 joins; R reaches them through a row (x, 9) for each x in over.
func overflowStar(fan int, over ...values.Value) (*cq.Query, *database.Instance) {
	q := cq.MustParse("Q(x, w, u, a0, a1, a2, a3, a4, a5, a6, a7) :- R(x, w), T(w, u), " +
		"A0(u, a0), A1(u, a1), A2(u, a2), A3(u, a3), A4(u, a4), A5(u, a5), A6(u, a6), A7(u, a7)")
	in := database.NewInstance()
	in.AddRow("R", 1, 5)
	for _, x := range over {
		in.AddRow("R", x, 9)
	}
	in.AddRow("T", 5, 1)
	in.AddRow("T", 9, 7)
	for i := 0; i < 8; i++ {
		rel := "A" + string(rune('0'+i))
		in.AddRow(rel, 1, values.Value(10*i))
		if i == 0 {
			in.AddRow(rel, 1, 1)
		}
		for a := 0; a < fan; a++ {
			in.AddRow(rel, 7, values.Value(a))
		}
	}
	return q, in
}

// A count that overflows in a subtree reaching no answer is not an
// error: the histogram runs no reduction, so the counting DP meets it.
func TestSelectLexOverflowInDanglingSubtree(t *testing.T) {
	q, in := overflowStar(256) // 2^64 joins under a w that R never holds
	n, err := CountAnswers(q, in)
	if err != nil || n != 2 {
		t.Fatalf("CountAnswers = %d, %v; want 2", n, err)
	}
	l := lex(t, q, "x, a0")
	for k, a0 := range []values.Value{0, 1} {
		got, err := SelectLex(q, in, l, nil, int64(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := []values.Value{1, 5, 1, a0, 10, 20, 30, 40, 50, 60, 70}
		if !reflect.DeepEqual(proj(q, got), want) {
			t.Fatalf("k=%d: %v, want %v", k, proj(q, got), want)
		}
	}
	if _, err := SelectLex(q, in, l, nil, 2); !errors.Is(err, ErrOutOfBound) {
		t.Fatalf("k=2: %v, want ErrOutOfBound", err)
	}

	// Once the branch reaches answers, |Q(D)| > 2^63 and both refuse:
	// whether one value's count overflows, or only their total does.
	overs := map[string]func() (*cq.Query, *database.Instance){
		"one value":   func() (*cq.Query, *database.Instance) { return overflowStar(256, 1) },
		"total alone": func() (*cq.Query, *database.Instance) { return overflowStar(128, xs(2, 258)...) },
	}
	for name, build := range overs {
		q, in := build()
		if _, err := CountAnswers(q, in); !errors.Is(err, checked.ErrOverflow) {
			t.Fatalf("%s: CountAnswers: %v, want ErrOverflow", name, err)
		}
		if _, err := SelectLex(q, in, l, nil, 0); !errors.Is(err, checked.ErrOverflow) {
			t.Fatalf("%s: SelectLex: %v, want ErrOverflow", name, err)
		}
	}
}

// xs returns the values lo, …, hi-1.
func xs(lo, hi int) []values.Value {
	out := make([]values.Value, 0, hi-lo)
	for x := lo; x < hi; x++ {
		out = append(out, values.Value(x))
	}
	return out
}

// The histogram groups root counts by runs when v is a node's first
// column, which is only as small as the number of distinct values when
// FreeReduce's nodes come out sorted and distinct.
func TestFreeReduceNodesSorted(t *testing.T) {
	catalog := []string{
		"Q(x, y, z) :- R(x, y), S(y, z)",
		"Q(x, y) :- R(x, y), S(y, z)",
		"Q(y, x) :- R(x, y, w), S(y)",
		"Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)",
		"Q(x, y) :- R(x, x, y), S(y, y)",
	}
	rng := rand.New(rand.NewSource(3))
	for _, src := range catalog {
		q := cq.MustParse(src)
		for trial := 0; trial < 20; trial++ {
			full, err := reduce.FreeReduce(q, randomInstance(q, rng, 12, 4))
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			for i, n := range full.Nodes {
				rows := n.Rel.Rows()
				if !slices.IsSortedFunc(rows, slices.Compare) {
					t.Fatalf("%s: node %d not sorted: %v", src, i, rows)
				}
				if len(slices.CompactFunc(rows, slices.Equal)) != n.Rel.Len() {
					t.Fatalf("%s: node %d holds duplicates", src, i)
				}
			}
		}
	}
}

// One SelectLex call allocates a small constant times its input: the
// counting DP's buffers are sized once per call and values are fixed
// in place.
func TestSelectLexAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 65 536-row two-path")
	}
	const n = 1 << 16
	q, in := workload.TwoPath(rand.New(rand.NewSource(1)), n, n/4, 0.4)
	var input uint64
	for _, name := range in.Names() {
		input += uint64(len(in.Relation(name).Data())) * 8
	}
	l := lex(t, q, "x, z, y")
	total, err := CountAnswers(q, in)
	if err != nil {
		t.Fatal(err)
	}
	run := func(k int64) {
		if _, err := SelectLex(q, in, l, nil, k); err != nil {
			t.Fatal(err)
		}
	}
	run(total / 2)
	const calls = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(1); i <= calls; i++ {
		run(total * i / (calls + 1))
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	ratio := float64(perCall) / float64(input)
	t.Logf("%d B per call, %.1f× the input's %d B", perCall, ratio, input)
	if ratio > 4 {
		t.Fatalf("SelectLex allocates %.1f× its input, want ≤ 4×", ratio)
	}
}

// fuzzValues are the at most 8 values a fuzzed row draws from, the int64
// bounds among them, so most rows of a path dangle.
var fuzzValues = [8]values.Value{math.MinInt64, -1, 0, 1, 2, 3, 7, math.MaxInt64}

// fuzzQueries are the free-connex two- and three-paths, full and with
// the last variable projected away.
var fuzzQueries = []string{
	"Q(x, y, z) :- R(x, y), S(y, z)",
	"Q(x, y) :- R(x, y), S(y, z)",
	"Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)",
	"Q(x, y, z) :- R(x, y), S(y, z), T(z, u)",
}

// FuzzSelectLexVsBaseline selects every k of a fuzzed path under a
// fuzzed, possibly partial lex order and compares with internal/baseline's
// materialize-and-sort. shape picks the query; each byte of ord picks
// the next order variable among those left (low bits) and descends when
// its top bit is set; byte i of rows is a row of atom i mod #atoms, its
// nibbles indexing fuzzValues.
func FuzzSelectLexVsBaseline(f *testing.F) {
	// The MinInt64 repro: x ∈ {MinInt64, 0, 7} under x desc.
	f.Add(uint8(0), []byte{0x80}, []byte{0x02, 0x22, 0x22, 0x23, 0x62, 0x24})
	f.Add(uint8(1), []byte{0x01, 0x80}, []byte{0x07, 0x71, 0x70, 0x17, 0x77, 0x10})
	f.Add(uint8(2), []byte{0x02, 0x81, 0x00}, []byte{0x12, 0x23, 0x34, 0x13, 0x24, 0x35, 0x02, 0x27, 0x47})
	f.Add(uint8(3), []byte{}, []byte{0x11, 0x12, 0x21, 0x22, 0x11, 0x13})
	f.Fuzz(func(t *testing.T, shape uint8, ord []byte, rows []byte) {
		q := cq.MustParse(fuzzQueries[int(shape)%len(fuzzQueries)])
		in := database.NewInstance()
		for _, a := range q.Atoms {
			in.SetRelation(a.Rel, database.NewRelation(len(a.Vars)))
		}
		rows = rows[:min(len(rows), 64)]
		for i, b := range rows {
			in.AddRow(q.Atoms[i%len(q.Atoms)].Rel, fuzzValues[b>>4&7], fuzzValues[b&7])
		}
		left := slices.Clone(q.Head)
		var l order.Lex
		for _, b := range ord[:min(len(ord), len(left))] {
			i := int(b&0x7f) % len(left)
			e := order.LexEntry{Var: left[i]}
			if b&0x80 != 0 {
				e.Dir = order.Desc
			}
			l.Entries = append(l.Entries, e)
			left = slices.Delete(left, i, i+1)
		}

		want := baseline.SortedByLex(q, in, completeForTest(q, l))
		if n, err := CountAnswers(q, in); err != nil || n != int64(len(want)) {
			t.Fatalf("CountAnswers = %d, %v; want %d", n, err, len(want))
		}
		for k := range want {
			got, err := SelectLex(q, in, l, nil, int64(k))
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if !reflect.DeepEqual(proj(q, got), proj(q, want[k])) {
				t.Fatalf("k=%d: %v, want %v", k, proj(q, got), proj(q, want[k]))
			}
		}
		if _, err := SelectLex(q, in, l, nil, int64(len(want))); !errors.Is(err, ErrOutOfBound) {
			t.Fatalf("k=|Q(D)|=%d: %v, want ErrOutOfBound", len(want), err)
		}
	})
}
