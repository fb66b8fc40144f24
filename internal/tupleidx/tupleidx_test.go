package tupleidx

import (
	"math/rand"
	"sort"
	"testing"

	"rankedaccess/internal/values"
)

func TestInsertLookupRoundTrip(t *testing.T) {
	x := New(2, 0)
	keys := [][]values.Value{
		{1, 2}, {2, 1}, {-1, 0}, {0, -1}, {1 << 40, -(1 << 40)}, {0, 0},
	}
	for i, k := range keys {
		id, added := x.Insert(k)
		if !added || id != i {
			t.Fatalf("insert %v: got (%d, %v), want (%d, true)", k, id, added, i)
		}
	}
	for i, k := range keys {
		if id, added := x.Insert(k); added || id != i {
			t.Fatalf("re-insert %v: got (%d, %v), want (%d, false)", k, id, added, i)
		}
		if id, ok := x.Lookup(k); !ok || id != i {
			t.Fatalf("lookup %v: got (%d, %v), want (%d, true)", k, id, ok, i)
		}
		if got := x.Key(i); got[0] != k[0] || got[1] != k[1] {
			t.Fatalf("Key(%d) = %v, want %v", i, got, k)
		}
	}
	if _, ok := x.Lookup([]values.Value{9, 9}); ok {
		t.Fatal("lookup of absent key succeeded")
	}
	if x.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(keys))
	}
}

func TestInsertColsMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols := []int{2, 0}
	a := New(2, 0)
	b := New(2, 0)
	for i := 0; i < 2000; i++ {
		tu := []values.Value{rng.Int63n(20) - 10, rng.Int63(), rng.Int63n(20) - 10}
		key := []values.Value{tu[2], tu[0]}
		idA, addA := a.InsertCols(tu, cols)
		idB, addB := b.Insert(key)
		if idA != idB || addA != addB {
			t.Fatalf("InsertCols (%d,%v) != Insert (%d,%v)", idA, addA, idB, addB)
		}
		if id, ok := a.LookupCols(tu, cols); !ok || id != idA {
			t.Fatalf("LookupCols after insert: (%d, %v)", id, ok)
		}
	}
}

func TestGrowthKeepsIds(t *testing.T) {
	x := New(1, 0) // tiny initial table forces many growths
	n := 10000
	for i := 0; i < n; i++ {
		id, added := x.Insert([]values.Value{values.Value(i * 3)})
		if !added || id != i {
			t.Fatalf("insert %d: got (%d, %v)", i, id, added)
		}
	}
	for i := 0; i < n; i++ {
		if id, ok := x.Lookup([]values.Value{values.Value(i * 3)}); !ok || id != i {
			t.Fatalf("lookup %d after growth: got (%d, %v)", i, id, ok)
		}
	}
}

func TestZeroArity(t *testing.T) {
	x := New(0, 0)
	if _, ok := x.Lookup(nil); ok {
		t.Fatal("empty index claims the empty key")
	}
	id, added := x.Insert(nil)
	if !added || id != 0 {
		t.Fatalf("first nullary insert: (%d, %v)", id, added)
	}
	if id, added := x.Insert([]values.Value{}); added || id != 0 {
		t.Fatalf("second nullary insert: (%d, %v)", id, added)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
}

func TestFlatKeysOrder(t *testing.T) {
	x := New(2, 0)
	x.Insert([]values.Value{5, 6})
	x.Insert([]values.Value{-7, 8})
	want := []values.Value{5, 6, -7, 8}
	got := x.FlatKeys()
	if len(got) != len(want) {
		t.Fatalf("FlatKeys len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FlatKeys[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSortValues(t *testing.T) {
	for _, n := range []int{0, 1, 7, 511, 512, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([]values.Value, n)
		for i := range vals {
			vals[i] = rng.Int63() - (1 << 62) // mixed signs
		}
		want := append([]values.Value(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortRows(vals, 1, false)
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("n=%d: sorted[%d] = %d, want %d", n, i, vals[i], want[i])
			}
		}
	}
}

func TestSortLexFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const arity, rows = 3, 1500
	data := make([]values.Value, arity*rows)
	for i := range data {
		data[i] = rng.Int63n(10) - 5
	}
	rowsOf := func(d []values.Value) [][]values.Value {
		out := make([][]values.Value, rows)
		for i := range out {
			out[i] = append([]values.Value(nil), d[i*arity:(i+1)*arity]...)
		}
		return out
	}
	want := rowsOf(data)
	sort.Slice(want, func(i, j int) bool {
		for c := 0; c < arity; c++ {
			if want[i][c] != want[j][c] {
				return want[i][c] < want[j][c]
			}
		}
		return false
	})
	SortLexFlat(data, arity)
	got := rowsOf(data)
	for i := range want {
		for c := 0; c < arity; c++ {
			if got[i][c] != want[i][c] {
				t.Fatalf("row %d col %d: got %d, want %d", i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestLookupZeroAlloc(t *testing.T) {
	x := New(2, 0)
	rng := rand.New(rand.NewSource(4))
	tuples := make([][]values.Value, 4096)
	for i := range tuples {
		tuples[i] = []values.Value{rng.Int63n(1 << 20), rng.Int63n(1 << 20)}
		x.Insert(tuples[i])
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		x.Lookup(tuples[i%len(tuples)])
		i++
	}); n != 0 {
		t.Fatalf("Lookup allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		x.Insert(tuples[i%len(tuples)]) // present: steady state
		i++
	}); n != 0 {
		t.Fatalf("steady-state Insert allocates %v times per run, want 0", n)
	}
}
