package access

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rankedaccess/internal/baseline"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// checkGloballyConsistent holds a built structure to what a full
// semijoin reduction guarantees: the root holds at most one bucket,
// every bucket of a non-root layer is selected by some parent tuple,
// and every tuple takes part in at least one answer (weight ≥ 1).
func checkGloballyConsistent(t *testing.T, la *Lex) {
	t.Helper()
	if nb := len(la.layers[0].bucketWeight); nb > 1 {
		t.Fatalf("root layer holds %d buckets", nb)
	}
	for i := range la.layers {
		ly := &la.layers[i]
		if i > 0 {
			p := &la.layers[ly.parent]
			selected := make([]bool, len(ly.bucketWeight))
			for j, c := range p.children {
				if c != i {
					continue
				}
				for t := j; t < len(p.childOf); t += len(p.children) {
					selected[p.childOf[t]] = true
				}
			}
			for b, ok := range selected {
				if !ok {
					t.Fatalf("layer %d: bucket %d of %d is selected by no tuple of layer %d", i, b, len(selected), ly.parent)
				}
			}
		}
		for b := range ly.bucketWeight {
			for tu := ly.bucketStart[b]; tu < ly.bucketStart[b+1]; tu++ {
				if w := ly.weight(b, tu); w < 1 {
					t.Fatalf("layer %d bucket %d: tuple %d weighs %d", i, b, tu, w)
				}
			}
		}
	}
}

// TestLayersGloballyConsistent: the weight pass leaves no dangling
// tuple or bucket in any layer, on seeded random paths over small
// domains (most rows dangle) under random tractable orders, and on the
// shapes TestLayeredBuildGolden pins.
func TestLayersGloballyConsistent(t *testing.T) {
	noAnswers := database.NewInstance()
	for i := 0; i < 64; i++ {
		noAnswers.AddRow("R", values.Value(i%5), values.Value(2*i))
		noAnswers.AddRow("S", values.Value(2*i+1), values.Value(i%7))
	}
	twoPath := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	fourPath, fourIn := workload.KPath(rand.New(rand.NewSource(1)), 4, 32, 32, 0.4)
	sparse, sparseIn := workload.TwoPath(rand.New(rand.NewSource(3)), 512, 4096, 0.4)
	type build struct {
		q     *cq.Query
		in    *database.Instance
		order order.Lex
	}
	builds := []build{
		{fourPath, fourIn, lex(t, fourPath, "x0, x1, x2, x3, x4")},
		{twoPath, noAnswers, lex(t, twoPath, "x, y, z")},
		{sparse, sparseIn, lex(t, sparse, "x desc, y, z desc")},
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		q, in := workload.KPath(rng, 2+trial%3, 8+rng.Intn(48), 4+rng.Intn(28), 0.4)
		var l order.Lex
		for {
			l = randomLex(q, rng.Perm(len(q.Head)), uint8(rng.Intn(256)))
			if v, _ := classify.DirectAccessLex(q, l, nil); v.Tractable {
				break
			}
		}
		builds = append(builds, build{q, in, l})
	}
	for _, b := range builds {
		la, err := BuildLex(b.q, b.in, b.order)
		if err != nil {
			t.Fatal(err)
		}
		checkGloballyConsistent(t, la)
		if want := baseline.Count(b.q, b.in); la.Total() != int64(want) {
			t.Fatalf("%s: total %d, baseline %d", b.q, la.Total(), want)
		}
	}
}

// randomLex orders the head variables of q by perm, the i-th one
// descending when bit i of dirs is set.
func randomLex(q *cq.Query, perm []int, dirs uint8) order.Lex {
	var l order.Lex
	for i, p := range perm {
		dir := order.Asc
		if dirs>>(i%8)&1 == 1 {
			dir = order.Desc
		}
		l.Entries = append(l.Entries, order.LexEntry{Var: q.Head[p], Dir: dir})
	}
	return l
}

// FuzzBuildLexVsBaseline builds a two- or three-path over at most 8
// values, so most rows dangle, under a fuzzed (possibly partial) lex
// order with fuzzed directions: Total, every Access, the whole answer
// list through AppendRange and one fuzzed window of it must equal the
// materialize-and-sort baseline.
func FuzzBuildLexVsBaseline(f *testing.F) {
	queries := []*cq.Query{
		cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)"),
		cq.MustParse("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)"),
	}
	f.Add([]byte{0, 0, 0, 3, 1, 2, 2, 5, 1, 0, 7, 2, 3}, uint16(0), uint16(2))
	f.Add([]byte{1, 5, 9, 4, 0, 1, 1, 2, 2, 3, 3, 4, 1, 1, 2, 2}, uint16(1), uint16(7))
	f.Add([]byte{0, 3, 255, 2, 6, 6, 6, 0, 6, 1, 6, 7}, uint16(3), uint16(65535))
	// Under x, y, z the answers are (1,2,3), (1,2,5), (4,2,3), (4,2,5):
	// the window [1, 2) ends exactly where the last layer's bucket does.
	f.Add([]byte{0, 1, 0, 2, 1, 2, 2, 3, 4, 2, 2, 5}, uint16(1), uint16(1))
	// A three-path whose relations hold about 450 copies each of the
	// row (5, 5): the baseline must join distinct rows, or it walks
	// 450³ combinations for one answer.
	dup := []byte{1, 0, 0, 3, 5, 1, 1, 5, 5, 2}
	for range 1340 {
		dup = append(dup, 5, 5)
	}
	f.Add(dup, uint16(0), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, w0, w1 uint16) {
		if len(data) < 4 {
			return
		}
		q := queries[int(data[0])%len(queries)]
		nv := len(q.Head)
		perm := rand.New(rand.NewSource(int64(data[1]))).Perm(nv)
		l := randomLex(q, perm[:1+int(data[3])%nv], data[2])
		in := database.NewInstance()
		for _, a := range q.Atoms {
			in.SetRelation(a.Rel, database.NewRelation(2))
		}
		rows := data[4:]
		for r := 0; r+1 < len(rows); r += 2 {
			a := q.Atoms[r/2%len(q.Atoms)]
			in.AddRow(a.Rel, values.Value(rows[r]%8), values.Value(rows[r+1]%8))
		}
		la, err := BuildLex(q, in, l)
		if errors.Is(err, ErrIntractable) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		checkGloballyConsistent(t, la)
		want := baseline.SortedByLex(q, in, la.Completed)
		if la.Total() != int64(len(want)) {
			t.Fatalf("%s ⟨%v⟩: total %d, baseline %d", q, l, la.Total(), len(want))
		}
		var heads []values.Value
		for k := range want {
			a, err := la.Access(int64(k))
			if err != nil {
				t.Fatalf("Access(%d): %v", k, err)
			}
			if !reflect.DeepEqual(proj(q, a), proj(q, want[k])) {
				t.Fatalf("%s ⟨%v⟩: answer #%d = %v, baseline %v", q, l, k, proj(q, a), proj(q, want[k]))
			}
			heads = append(heads, proj(q, want[k])...)
		}
		total := la.Total()
		k0 := int64(w0) % (total + 1)
		k1 := k0 + int64(w1)%(total-k0+1)
		for _, w := range [][2]int64{{0, total}, {k0, k1}} {
			got, err := la.AppendRange(nil, w[0], w[1])
			if err != nil || !slices.Equal(got, heads[w[0]*int64(nv):w[1]*int64(nv)]) {
				t.Fatalf("%s ⟨%v⟩: AppendRange(%d, %d) = %v (%v), baseline %v", q, l, w[0], w[1], got, err, heads[w[0]*int64(nv):w[1]*int64(nv)])
			}
		}
	})
}

// TestBuildLexAllocationBound bounds what one BuildLex allocates, by the
// workload of selection's TestSelectLexAllocationBound: a layer holding
// every variable of its node in the node's column order is that node's
// relation, not a copy of it.
func TestBuildLexAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 65 536-row two-path")
	}
	const n = 1 << 16
	q, in := workload.TwoPath(rand.New(rand.NewSource(1)), n, n/4, 0.4)
	var input uint64
	for _, name := range in.Names() {
		input += uint64(len(in.Relation(name).Data())) * 8
	}
	l, err := order.ParseLex(q, "x, y, z")
	if err != nil {
		t.Fatal(err)
	}
	build := func() {
		if _, err := BuildLex(q, in, l); err != nil {
			t.Fatal(err)
		}
	}
	build()
	const calls = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	ratio := float64(perCall) / float64(input)
	t.Logf("%d B per call, %.2f× the input's %d B", perCall, ratio, input)
	if ratio > 5.5 {
		t.Fatalf("BuildLex allocates %.2f× its input, want ≤ 5.5×", ratio)
	}
}
