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
	"rankedaccess/internal/fd"
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
	// One bounds rule: a window that leaves [0, Total()] or runs
	// backwards is refused before the first row.
	for _, w := range [][2]int64{{0, total + 1}, {-1, 0}, {total, total + 1}, {total + 1, total + 1}, {1, 0}} {
		if got, err := s.AppendRange(nil, w[0], w[1]); !errors.Is(err, access.ErrOutOfBound) || len(got) != 0 {
			t.Fatalf("AppendRange(%d, %d) = %v (%v), want nothing appended and ErrOutOfBound", w[0], w[1], got, err)
		}
	}
	scan(t, rng, s)
}

// scan holds a structure to the scan contract: a probe buffer may step
// to the successor of the answer it holds instead of descending, and no
// sequence of probes may be able to tell. It is a seeded random walk
// through one buffer — steps, repeats, jumps, a Rank or an Access that
// borrows the same buffer from the pool in between, out-of-bound probes
// followed by the rank a stale buffer would step to, walks off the last
// answer — with every answer compared, all variables of it, to a
// descent's.
func scan(t *testing.T, rng *rand.Rand, s access.Structure) {
	t.Helper()
	total := s.Total()
	// The reference is descents only: probed in descending order, no
	// rank ever follows the answer a buffer holds.
	ref := make([]order.Answer, total)
	for k := total - 1; k >= 0; k-- {
		a, err := s.Access(k)
		if err != nil {
			t.Fatalf("Access(%d): %v", k, err)
		}
		ref[k] = a
	}
	head := s.Head()
	var want []values.Value
	for _, a := range ref {
		for _, v := range head {
			want = append(want, a[v])
		}
	}
	// Every window of up to four rows: whichever layers' buckets end
	// between two consecutive answers, some window starts before, at
	// and after that boundary.
	for k0 := int64(0); k0 < total; k0++ {
		k1 := min(k0+1+k0%4, total)
		got, err := s.AppendRange(nil, k0, k1)
		if err != nil || !slices.Equal(got, want[int(k0)*len(head):int(k1)*len(head)]) {
			t.Fatalf("AppendRange(%d, %d) = %v (%v), descents give %v", k0, k1, got, err, ref[k0:k1])
		}
	}

	buf := s.GetBuf()
	probe := func(k int64) {
		t.Helper()
		a, err := s.AccessInto(buf, k)
		if k < 0 || k >= total {
			if !errors.Is(err, access.ErrOutOfBound) {
				t.Fatalf("AccessInto(%d) of %d = %v, want ErrOutOfBound", k, total, err)
			}
			return
		}
		if err != nil || !slices.Equal(a, ref[k]) {
			t.Fatalf("AccessInto(%d) = %v (%v), a descent gives %v", k, a, err, ref[k])
		}
	}
	// lend hands the walk's buffer to the pool for the length of one
	// pooled operation and borrows it back: outside the race detector
	// sync.Pool returns the buffer just put, so the operation ran
	// through it.
	lend := func(op func()) {
		s.PutBuf(buf)
		op()
		buf = s.GetBuf()
	}
	k := int64(-1)
	for move := 0; move < 4000 && total > 0; move++ {
		switch r := rng.Intn(20); {
		case r < 10:
			k++
		case r == 10:
			// the same rank again
		case r == 11:
			k--
		case r < 14:
			k = rng.Int63n(total)
		case r == 14:
			k = total - 1 - rng.Int63n(min(total, 3))
		case r == 15:
			lend(func() { s.Rank(ref[rng.Int63n(total)]) })
			k++
		case r == 16:
			// Lex.Rank off the FD-consistent path and on a miss.
			p := slices.Clone(ref[rng.Int63n(total)])
			if len(head) > 0 {
				p[head[rng.Intn(len(head))]] += values.Value(rng.Intn(3) - 1)
			}
			lend(func() { s.Rank(p) })
			k++
		case r == 17:
			lend(func() {
				j := rng.Int63n(total)
				if a, err := s.Access(j); err != nil || !slices.Equal(a, ref[j]) {
					t.Fatalf("Access(%d) = %v (%v), a descent gives %v", j, a, err, ref[j])
				}
			})
			k++
		default:
			probe([]int64{-1, total, total + 7}[rng.Intn(3)])
			k++
		}
		if k < 0 {
			k = 0
		}
		if k >= total {
			// Off the last answer, and then around to the first.
			probe(k)
			probe(k + 1)
			k = 0
		}
		probe(k)
	}
	s.PutBuf(buf)
}

// scanCases are layered structures the conformance table does not
// reach, each a shape the successor step treats differently.
var scanCases = map[string]func(*testing.T, *rand.Rand) *access.Lex{
	"mixed-directions": func(t *testing.T, rng *rand.Rand) *access.Lex {
		q, in := workload.TwoPath(rng, 80, 10, 0.4)
		return buildLex(t, q, in, "x desc, y, z desc")
	},
	"star": func(t *testing.T, rng *rand.Rand) *access.Lex {
		// Two children under one layer: a pop re-resolves both buckets.
		q := cq.MustParse("Q(x, y, z) :- R(x, y), S(x, z)")
		_, in := workload.TwoPath(rng, 60, 8, 0.4)
		return buildLex(t, q, in, "x, y desc, z")
	},
	// Every bucket below the root has one tuple, so every step pops to
	// the root.
	"one-tuple-buckets": func(t *testing.T, _ *rand.Rand) *access.Lex {
		q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
		in := database.NewInstance()
		for i := int64(0); i < 50; i++ {
			in.AddRow("R", i, 100+i)
			in.AddRow("S", 100+i, 200+i)
		}
		la := buildLex(t, q, in, "x, y, z")
		for i := 1; i < la.LayerCount(); i++ {
			if n := len(la.DumpLayer(i)); n != 50 {
				t.Fatalf("layer %d has %d tuples in 50 buckets", i, n)
			}
		}
		return la
	},
	// One bucket in the last layer holds every answer: no step pops.
	"one-huge-bucket": func(t *testing.T, _ *rand.Rand) *access.Lex {
		q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
		in := database.NewInstance()
		in.AddRow("R", 1, 2)
		for i := int64(0); i < 700; i++ {
			in.AddRow("S", 2, i)
		}
		la := buildLex(t, q, in, "x, y, z desc")
		if la.Total() != 700 || len(la.DumpLayer(0)) != 1 || len(la.DumpLayer(1)) != 1 {
			t.Fatalf("%d answers, want 700 under one x and one y", la.Total())
		}
		return la
	},
	"restored": func(t *testing.T, rng *rand.Rand) *access.Lex {
		q, in := workload.TwoPath(rng, 80, 10, 0.4)
		parts, ok := buildLex(t, q, in, "z desc, y, x").Parts()
		if !ok {
			t.Fatal("an FD-free Lex exports no parts")
		}
		la, err := access.LexFromParts(q, parts)
		if err != nil {
			t.Fatal(err)
		}
		return la
	},
	// Two children under one layer, their buckets resolved by restore
	// rather than by the build.
	"restored-star": func(t *testing.T, rng *rand.Rand) *access.Lex {
		q := cq.MustParse("Q(x, y, z) :- R(x, y), S(x, z)")
		_, in := workload.TwoPath(rng, 60, 8, 0.4)
		parts, ok := buildLex(t, q, in, "x, z desc, y").Parts()
		if !ok {
			t.Fatal("an FD-free Lex exports no parts")
		}
		la, err := access.LexFromParts(q, parts)
		if err != nil {
			t.Fatal(err)
		}
		return la
	},
	// Steps in the extended space, projected on the way out; x, z, y is
	// intractable without the FD.
	"fd-extended": func(t *testing.T, rng *rand.Rand) *access.Lex {
		q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
		in := database.NewInstance()
		for x := int64(0); x < 30; x++ {
			in.AddRow("R", x, x%6)
		}
		for i := 0; i < 40; i++ {
			in.AddRow("S", rng.Int63n(6), rng.Int63n(12))
		}
		la, err := access.BuildLexFD(q, in, mustLex(q, "x, z desc, y"), fd.MustParse(q, "R: x -> y"))
		if err != nil {
			t.Fatal(err)
		}
		return la
	},
	"boolean": func(t *testing.T, rng *rand.Rand) *access.Lex {
		_, in := workload.TwoPath(rng, 20, 4, 0.4)
		return buildLex(t, cq.MustParse("Q() :- R(x, y), S(y, z)"), in, "")
	},
}

func buildLex(t *testing.T, q *cq.Query, in *database.Instance, l string) *access.Lex {
	t.Helper()
	la, err := access.BuildLex(q, in, mustLex(q, l))
	if err != nil {
		t.Fatal(err)
	}
	return la
}

func TestScanContract(t *testing.T) {
	for name, build := range scanCases {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				la := build(t, rng)
				if la.Total() == 0 {
					t.Fatal("no answers to scan")
				}
				scan(t, rng, la)
			}
		})
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
