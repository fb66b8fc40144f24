package access_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// conformanceKinds is the conformance table: one row per structure
// kind, each built by shard.Kind.Build — the one function that maps a
// kind to a structure — over a seeded workload instance. Every row runs
// through conform bare (TestStructureConformance) and under an Overlay
// (TestOverlay*).
var conformanceKinds = map[string]func(*rand.Rand) (*cq.Query, *database.Instance, shard.Kind){
	"lex": func(rng *rand.Rand) (*cq.Query, *database.Instance, shard.Kind) {
		q, in := workload.TwoPath(rng, 60, 12, 0.4)
		return q, in, shard.Kind{Lex: mustLex(q, "y, x desc")}
	},
	"sum": func(rng *rand.Rand) (*cq.Query, *database.Instance, shard.Kind) {
		q, in, w := workload.SingleAtomCover(rng, 80, 12)
		return q, in, shard.Kind{IsSum: true, Sum: w}
	},
	// An existential join variable and the disruptive-trio order: the
	// fallback's territory on both counts.
	"mat-lex": func(rng *rand.Rand) (*cq.Query, *database.Instance, shard.Kind) {
		_, in := workload.TwoPath(rng, 40, 8, 0.4)
		q := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
		return q, in, shard.Kind{Materialized: true, Lex: mustLex(q, "z desc")}
	},
	"mat-sum": func(rng *rand.Rand) (*cq.Query, *database.Instance, shard.Kind) {
		q, in := workload.TwoPath(rng, 40, 8, 0.4)
		return q, in, shard.Kind{IsSum: true, Materialized: true, Sum: order.IdentitySum(q.Head...)}
	},
}

func mustLex(q *cq.Query, s string) order.Lex {
	l, err := order.ParseLex(q, s)
	if err != nil {
		panic(err)
	}
	return l
}

// conformCase builds one row of the table and checks it against
// internal/baseline: bare, or under an overlay of random edits.
func conformCase(t *testing.T, kind string, overlay bool) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, in, k := conformanceKinds[kind](rng)
		s, completed, err := k.Build(context.Background(), q, in)
		if err != nil {
			t.Fatal(err)
		}
		// The reference: Q(I) from the baseline evaluator, sorted by the
		// comparator a coordinator would merge this kind by.
		cmp := k.Comparator(q, completed)
		want := baseline.AllAnswers(q, in)
		sort.Slice(want, func(i, j int) bool { return cmp(want[i], want[j]) < 0 })
		if overlay {
			adds, dels := editSets(rng, q, want, cmp)
			o, err := access.NewOverlay(s, adds, dels)
			if err != nil {
				t.Fatal(err)
			}
			if o.Base() != s || o.Edits() != len(adds)+len(dels) || o.Adds() != len(adds) {
				t.Fatalf("overlay reports base %v, %d edits, %d adds", o.Base(), o.Edits(), o.Adds())
			}
			want = slices.DeleteFunc(want, func(a order.Answer) bool {
				return slices.ContainsFunc(dels, func(d order.Answer) bool { return cmp(a, d) == 0 })
			})
			want = append(want, adds...)
			sort.Slice(want, func(i, j int) bool { return cmp(want[i], want[j]) < 0 })
			s = o
		}
		conform(t, rng, q, s, want, cmp)
	}
}

// editSets draws a random set of deletions from the base answers and a
// set of additions guaranteed absent from it (their values lie outside
// the data domain; existential slots stay zero, as the engine's delta
// answers have them).
func editSets(rng *rand.Rand, q *cq.Query, base []order.Answer, cmp func(a, b order.Answer) int) (adds, dels []order.Answer) {
	for _, a := range base {
		if rng.Intn(4) == 0 {
			dels = append(dels, a)
		}
	}
	for len(adds) < 5 {
		a := make(order.Answer, q.NumVars())
		for _, v := range q.Head {
			a[v] = values.Value(100 + rng.Intn(40))
		}
		if !slices.ContainsFunc(adds, func(p order.Answer) bool { return cmp(a, p) == 0 }) {
			adds = append(adds, a)
		}
	}
	return adds, dels
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// conform holds one structure to the Structure contract, against the
// reference answer list want (sorted by cmp).
func conform(t *testing.T, rng *rand.Rand, q *cq.Query, s access.Structure, want []order.Answer, cmp func(a, b order.Answer) int) {
	t.Helper()
	total := int64(len(want))
	if s.Total() != total {
		t.Fatalf("Total = %d, baseline has %d answers", s.Total(), total)
	}
	if !slices.Equal(s.Head(), q.Head) {
		t.Fatalf("Head = %v, query head %v", s.Head(), q.Head)
	}
	head := func(a order.Answer) []values.Value {
		out := make([]values.Value, len(q.Head))
		for i, v := range q.Head {
			out[i] = a[v]
		}
		return out
	}
	// probes are tuples to rank and compare: every answer, and every
	// answer nudged off by a little (often onto a neighbour) and by a
	// lot (never an answer).
	probes := slices.Clone(want)
	buf := s.GetBuf()
	var prev order.Answer
	var tuples [][]values.Value
	for k := int64(0); k < total; k++ {
		a, err := s.Access(k)
		if err != nil {
			t.Fatalf("Access(%d): %v", k, err)
		}
		if !slices.Equal(head(a), head(want[k])) {
			t.Fatalf("Access(%d) = %v, want %v", k, head(a), head(want[k]))
		}
		if prev != nil && s.Compare(prev, a) >= 0 {
			t.Fatalf("Access(%d) does not follow Access(%d) under Compare", k, k-1)
		}
		prev = a
		into, err := s.AccessInto(buf, k)
		if err != nil || !slices.Equal(head(into), head(a)) {
			t.Fatalf("AccessInto(%d) = %v (%v), Access %v", k, into, err, a)
		}
		one, err := s.AppendTuple(nil, k)
		if err != nil || !slices.Equal(one, head(a)) {
			t.Fatalf("AppendTuple(%d) = %v (%v), want %v", k, one, err, head(a))
		}
		tuples = append(tuples, one)
		for _, d := range []values.Value{-1, 1, 1000} {
			p := slices.Clone(want[k])
			p[q.Head[rng.Intn(len(q.Head))]] += d
			probes = append(probes, p)
		}
	}
	s.PutBuf(buf)

	for _, p := range probes {
		lo := sort.Search(len(want), func(i int) bool { return cmp(want[i], p) >= 0 })
		exact := lo < len(want) && cmp(want[lo], p) == 0
		if r, ex := s.Rank(p); r != int64(lo) || ex != exact {
			t.Fatalf("Rank(%v) = (%d, %v), want (%d, %v)", head(p), r, ex, lo, exact)
		}
		k, err := access.Inverted(s, p)
		if exact != (err == nil) || (exact && k != int64(lo)) || (!exact && !errors.Is(err, access.ErrNotAnAnswer)) {
			t.Fatalf("Inverted(%v) = (%d, %v), want index %d, answer %v", head(p), k, err, lo, exact)
		}
		// The merge across shards and nodes depends on exactly this: the
		// coordinator's comparator and the structure's agree.
		o := probes[rng.Intn(len(probes))]
		if sign(s.Compare(p, o)) != sign(cmp(p, o)) {
			t.Fatalf("Compare(%v, %v) = %d, Kind.Comparator says %d", head(p), head(o), s.Compare(p, o), cmp(p, o))
		}
	}

	windows := [][2]int64{{0, total}, {0, 0}, {total, total}}
	for i := 0; i < 20 && total > 0; i++ {
		k0 := rng.Int63n(total)
		windows = append(windows, [2]int64{k0, k0 + rng.Int63n(total-k0+1)})
	}
	for _, w := range windows {
		got, err := s.AppendRange(nil, w[0], w[1])
		if err != nil || !slices.Equal(got, slices.Concat(tuples[w[0]:w[1]]...)) {
			t.Fatalf("AppendRange(%d, %d) = %v (%v), AppendTuples give %v", w[0], w[1], got, err, tuples[w[0]:w[1]])
		}
	}

	for _, k := range []int64{-1, total} {
		if _, err := s.Access(k); !errors.Is(err, access.ErrOutOfBound) {
			t.Fatalf("Access(%d) = %v, want ErrOutOfBound", k, err)
		}
		if _, err := s.AccessInto(s.GetBuf(), k); !errors.Is(err, access.ErrOutOfBound) {
			t.Fatalf("AccessInto(%d) = %v, want ErrOutOfBound", k, err)
		}
		if _, err := s.AppendTuple(nil, k); !errors.Is(err, access.ErrOutOfBound) {
			t.Fatalf("AppendTuple(%d) = %v, want ErrOutOfBound", k, err)
		}
	}
	if _, err := s.AppendRange(nil, 0, total+1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("AppendRange past the end = %v, want ErrOutOfBound", err)
	}
}

func TestStructureConformance(t *testing.T) {
	for kind := range conformanceKinds {
		t.Run(kind, func(t *testing.T) { conformCase(t, kind, false) })
	}
}

func TestOverlayLex(t *testing.T)    { conformCase(t, "lex", true) }
func TestOverlaySum(t *testing.T)    { conformCase(t, "sum", true) }
func TestOverlayMatLex(t *testing.T) { conformCase(t, "mat-lex", true) }
func TestOverlayMatSum(t *testing.T) { conformCase(t, "mat-sum", true) }

// An overlay probe borrows the base's pooled buffer instead of copying
// the base answer: zero allocations per probe, on base slots and on
// added answers alike (it was one per base-slot probe while the overlay
// reached a layered base through Lex.Access).
func TestOverlayAppendTupleZeroAllocs(t *testing.T) {
	if shardtest.RaceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	q, in := workload.TwoPath(rand.New(rand.NewSource(5)), 200, 12, 0.4)
	la, err := access.BuildLex(q, in, mustLex(q, "x, y, z"))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := la.Access(0)
	last, _ := la.Access(la.Total() - 1)
	add := make(order.Answer, q.NumVars())
	for _, v := range q.Head {
		add[v] = 500
	}
	o, err := access.NewOverlay(la, []order.Answer{add}, []order.Answer{first, last})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]values.Value, 0, len(q.Head))
	k := int64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := o.AppendTuple(dst[:0], k%o.Total()); err != nil {
			t.Fatal(err)
		}
		k += 7
	})
	if allocs != 0 {
		t.Fatalf("Overlay.AppendTuple: %v allocs/op, want 0", allocs)
	}
}
