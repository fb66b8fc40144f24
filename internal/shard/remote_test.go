package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/values"
)

const (
	twoPath  = "Q(x, y, z) :- R(x, y), S(y, z)"
	oneAtom  = "Q(x, y) :- R(x, y)"
	skewedAt = 7 // the partition value the skewed layout piles onto
)

// layout is one adversarial way of spreading answers over shards; every
// layout partitions on y, which both queries bind in R.
type layout struct {
	name string
	p    int
	in   *database.Instance
}

// randomInstance draws nR rows of R over dom × dom and nS rows of S over
// dom × domZ.
func randomInstance(seed int64, nR, nS, dom, domZ int) *database.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := database.NewInstance()
	for i := 0; i < nR; i++ {
		in.AddRow("R", values.Value(rng.Intn(dom)), values.Value(rng.Intn(dom)))
	}
	for i := 0; i < nS; i++ {
		in.AddRow("S", values.Value(rng.Intn(dom)), values.Value(rng.Intn(domZ)))
	}
	in.SetRelation("R", in.Relation("R").Dedup())
	in.SetRelation("S", in.Relation("S").Dedup())
	return in
}

func layouts() []layout {
	// Enough rows of R on one partition value that its shard gets
	// splitters under either query, one in every m·P answers.
	const wide = 1200
	// One shard holds > 99 % of the answers of either query.
	skew := database.NewInstance()
	for i := 0; i < wide; i++ {
		skew.AddRow("R", values.Value(i), skewedAt)
	}
	for j := 0; j < 6; j++ {
		skew.AddRow("S", skewedAt, values.Value(j))
	}
	for _, y := range []values.Value{1, 2} {
		skew.AddRow("R", 1, y)
		skew.AddRow("S", y, 0)
	}
	// Two partition values: at P = 8 most shards are empty, and P
	// exceeds the number of distinct partition values. Both non-empty
	// shards are wide enough for splitters under either query.
	sparse := database.NewInstance()
	for y := values.Value(0); y < 2; y++ {
		for x := values.Value(0); x < wide; x++ {
			sparse.AddRow("R", x, y)
		}
		for z := values.Value(0); z < 3; z++ {
			sparse.AddRow("S", y, z)
		}
	}
	return []layout{
		{"one shard holds 99%", 4, skew},
		{"empty shards, P > partition values", 8, sparse},
		{"P = 1", 1, randomInstance(5, 400, 400, 20, 20)},
		// Every shard window is narrower than PivotsPerWindow from the
		// first round on.
		{"windows narrower than m", 3, randomInstance(6, 7, 7, 4, 4)},
		// Every shard is wide enough for splitters under either query.
		{"balanced", 4, randomInstance(7, 12000, 100, 100, 3)},
	}
}

// tabled reports whether the layout's handles must carry a splitter
// table: all but the single shard and the one whose shards are narrower
// than a round.
func (l layout) tabled() bool { return l.p != 1 && l.p != 3 }

// remoteCase is one structure kind over one query.
type remoteCase struct {
	name  string
	query string
	kind  func(q *cq.Query) shard.Kind
}

func remoteCases(t *testing.T) []remoteCase {
	lex := func(spec string, materialized bool) func(q *cq.Query) shard.Kind {
		return func(q *cq.Query) shard.Kind {
			l, err := order.ParseLex(q, spec)
			if err != nil {
				t.Fatal(err)
			}
			return shard.Kind{Lex: l, Materialized: materialized}
		}
	}
	sum := func(materialized bool) func(q *cq.Query) shard.Kind {
		return func(q *cq.Query) shard.Kind {
			return shard.Kind{IsSum: true, Materialized: materialized, Sum: order.IdentitySum(q.Head...)}
		}
	}
	return []remoteCase{
		{"layered lex", twoPath, lex("y desc, x, z", false)},
		{"materialized lex", twoPath, lex("x, z, y", true)},
		{"sum", oneAtom, sum(false)},
		{"materialized sum", twoPath, sum(true)},
	}
}

// remoteHandle builds the layout's shards as two owners (even and odd
// shard indices, as two nodes would) and merges them through the
// loopback.
func remoteHandle(t *testing.T, q *cq.Query, in *database.Instance, k shard.Kind, p int) (*shard.Handle, *shardtest.Loopback) {
	t.Helper()
	return ownersHandle(t, q, in, k, p, min(p, 2))
}

// ownedBuilds builds p shards as n ≤ p owners, shard s on owner s mod n.
func ownedBuilds(t *testing.T, q *cq.Query, in *database.Instance, k shard.Kind, p, n int) []*shard.Owned {
	t.Helper()
	pt, err := shard.Choose(q, "y", p)
	if err != nil {
		t.Fatal(err)
	}
	var owned []*shard.Owned
	for first := 0; first < n; first++ {
		var shards []int
		for s := first; s < p; s += n {
			shards = append(shards, s)
		}
		o, err := shard.Build(context.Background(), q, in, k, pt, shards)
		if err != nil {
			t.Fatal(err)
		}
		owned = append(owned, o)
	}
	return owned
}

// ownersHandle is remoteHandle over n ≤ p owners, shard s on owner s mod n.
func ownersHandle(t *testing.T, q *cq.Query, in *database.Instance, k shard.Kind, p, n int) (*shard.Handle, *shardtest.Loopback) {
	t.Helper()
	loop, err := shardtest.New(ownedBuilds(t, q, in, k, p, n)...)
	if err != nil {
		t.Fatal(err)
	}
	h, err := loop.Handle(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	return h, loop
}

// TestRemoteOracle checks the batched k-ary rank search against the
// brute-force baseline with no socket in the way: for every structure
// kind on every adversarial layout, EVERY rank k, the inverse of every
// answer, and AppendRange over random windows must reproduce the sorted
// answer list exactly, with no request over a round's m·P pivots. Every
// layout wide enough runs with a splitter table, whose fill is counted
// apart and may fill a batch to MaxPivots.
func TestRemoteOracle(t *testing.T) {
	for _, lay := range layouts() {
		for _, rc := range remoteCases(t) {
			t.Run(lay.name+"/"+rc.name, func(t *testing.T) {
				q, err := cq.Parse(rc.query)
				if err != nil {
					t.Fatal(err)
				}
				k := rc.kind(q)
				var sorted []order.Answer
				if k.IsSum {
					sorted = baseline.SortedBySum(q, lay.in, k.Sum)
				} else {
					sorted = baseline.SortedByLex(q, lay.in, k.Lex)
				}
				var want []values.Value
				for _, a := range sorted {
					for _, v := range q.Head {
						want = append(want, a[v])
					}
				}
				w := int64(len(q.Head))
				h, loop := remoteHandle(t, q, lay.in, k, lay.p)
				total := int64(len(sorted))
				if h.Total() != total || total == 0 {
					t.Fatalf("total %d, baseline %d (must be non-empty)", h.Total(), total)
				}
				if lay.name == "one shard holds 99%" {
					if big := slices.Max(h.PartTotals()); float64(big) < 0.99*float64(total) {
						t.Fatalf("skewed layout: largest shard holds %d of %d", big, total)
					}
				}
				if s := len(h.Splitters()); (s > 0) != lay.tabled() || (s > 0) != (loop.FillCalls > 0) || loop.FillMaxBatch > shard.MaxPivots {
					t.Fatalf("%d splitters over shards of %v, filled by %d calls of up to %d pivots", s, h.PartTotals(), loop.FillCalls, loop.FillMaxBatch)
				}
				var dst []values.Value
				for i := int64(0); i < total; i++ {
					dst, err = h.AppendTuple(dst[:0], q.Head, i)
					if err != nil || !slices.Equal(dst, want[i*w:(i+1)*w]) {
						t.Fatalf("k=%d: %v (%v), baseline %v", i, dst, err, want[i*w:(i+1)*w])
					}
					if r, exact, err := h.Rank(sorted[i]); err != nil || !exact || r != i {
						t.Fatalf("Rank(answer %d) = %d, %v, %v", i, r, exact, err)
					}
				}
				// The search is k-ary: far fewer rank rounds than the
				// log₂ n + P of a one-pivot search.
				if rounds := float64(loop.Rounds.Load()) / float64(total); rounds > 5 {
					t.Fatalf("%.1f rank rounds per probe over %d answers", rounds, total)
				}
				rng := rand.New(rand.NewSource(total))
				for i := 0; i < 40; i++ {
					k0 := rng.Int63n(total)
					k1 := k0 + 1 + rng.Int63n(min(total-k0, 700))
					dst, err = h.AppendRange(dst[:0], q.Head, k0, k1)
					if err != nil || !slices.Equal(dst, want[k0*w:k1*w]) {
						t.Fatalf("range [%d, %d): %d values (%v), baseline %d", k0, k1, len(dst), err, (k1-k0)*w)
					}
				}
				if got := loop.MaxBatch.Load(); got > int64(shard.PivotsPerWindow*lay.p) || got > shard.MaxPivots {
					t.Fatalf("a probe's request carried %d pivots; a round is at most m·P = %d", got, shard.PivotsPerWindow*lay.p)
				}
			})
		}
	}
}

// TestRoundsFetchFromOneOwner: over one, two or three owners, every
// probe round takes its pivots from one owner, which prices them in its
// fetch, then sends at most one rank call to each other owner — with
// one owner a round is a single call — and Access, AppendRange and Rank
// equal the in-process handle's at every k.
func TestRoundsFetchFromOneOwner(t *testing.T) {
	q := cq.MustParse(twoPath)
	k := remoteCases(t)[0].kind(q)
	in := randomInstance(9, 240, 240, 30, 30)
	for _, p := range []int{2, 3, 4, 8} {
		merged := mergedHandle(t, q, in, k, p)
		for owners := 1; owners <= min(p, 3); owners++ {
			t.Run(fmt.Sprintf("P=%d/%d owners", p, owners), func(t *testing.T) {
				h, loop := ownersHandle(t, q, in, k, p, owners)
				if h.Total() != merged.Total() {
					t.Fatalf("total %d, in process %d", h.Total(), merged.Total())
				}
				var got, want []values.Value
				var err error
				for i := int64(0); i < h.Total(); i++ {
					r0, a0, k0 := loop.Rounds.Load(), loop.AccessCalls.Load(), loop.RankCalls.Load()
					got, err = h.AppendTuple(got[:0], q.Head, i)
					want, _ = merged.AppendTuple(want[:0], q.Head, i)
					if err != nil || !slices.Equal(got, want) {
						t.Fatalf("k=%d: %v (%v), in process %v", i, got, err, want)
					}
					r, a, rk := loop.Rounds.Load()-r0, loop.AccessCalls.Load()-a0, loop.RankCalls.Load()-k0
					if a < r || a > r+1 || rk > r*int64(owners-1) {
						t.Fatalf("k=%d: %d rounds sent %d fetches and %d rank calls", i, r, a, rk)
					}
					end := min(i+5, h.Total())
					got, err = h.AppendRange(got[:0], q.Head, i, end)
					want, _ = merged.AppendRange(want[:0], q.Head, i, end)
					if err != nil || !slices.Equal(got, want) {
						t.Fatalf("range [%d, %d): %v (%v), in process %v", i, end, got, err, want)
					}
					x, _ := merged.Access(i)
					if r, ex, err := h.Rank(x); err != nil || !ex || r != i {
						t.Fatalf("Rank(answer %d) = %d, %v, %v", i, r, ex, err)
					}
				}
				if n := loop.MaxSources.Load(); n != 1 {
					t.Fatalf("a probe fetched from %d owners at once, want one", n)
				}
				if loop.Rounds.Load() == 0 {
					t.Fatalf("no probe over shards of %v ran a round", h.PartTotals())
				}
			})
		}
	}
}

// TestRemoteMoreWindowsThanARoundCarries covers the far side of the
// pivot cap: at MaxShards there are more open windows than a round of
// m pivots each may carry, so every window contributes fewer. Answers
// stay exact and the round fills the cap without exceeding it. The
// shards are too narrow for splitters, so every search starts from the
// full windows.
func TestRemoteMoreWindowsThanARoundCarries(t *testing.T) {
	q := cq.MustParse(twoPath)
	k := remoteCases(t)[0].kind(q)
	const p, n = shard.MaxShards, 1100
	rng := rand.New(rand.NewSource(p))
	in := database.NewInstance()
	for i := 0; i < n; i++ {
		in.AddRow("R", values.Value(rng.Intn(n)), values.Value(i))
		in.AddRow("S", values.Value(i), values.Value(rng.Intn(n)))
	}
	sorted := baseline.SortedByLex(q, in, k.Lex)
	h, loop := remoteHandle(t, q, in, k, p)
	for s, total := range h.PartTotals() {
		if total <= shard.PivotsPerWindow {
			t.Fatalf("shard %d holds %d answers: its window would be taken whole", s, total)
		}
	}
	if s := len(h.Splitters()); s != 0 {
		t.Fatalf("%d splitters over shards of %v: the first round would not see %d open windows", s, h.PartTotals(), p)
	}
	for i := 0; i < len(sorted); i += 97 {
		got, err := h.Access(int64(i))
		if err != nil || !slices.Equal(got, sorted[i]) {
			t.Fatalf("k=%d: %v (%v), baseline %v", i, got, err, sorted[i])
		}
	}
	if got := loop.MaxBatch.Load(); got != shard.MaxPivots {
		t.Fatalf("largest request carried %d pivots, want the cap %d (%d windows of %d)", got, shard.MaxPivots, p, shard.MaxPivots/p)
	}
}

// TestRemoteSingleShardIsOneAccess: with one shard there is nothing to
// search — no splitter is priced, and each probe is one batched access
// of one position and no rank round at all.
func TestRemoteSingleShardIsOneAccess(t *testing.T) {
	lay := layouts()[2]
	q := cq.MustParse(twoPath)
	k := remoteCases(t)[0].kind(q)
	h, loop := remoteHandle(t, q, lay.in, k, 1)
	if s := len(h.Splitters()); s != 0 || loop.FillCalls != 0 || h.Total() < 2*shard.PivotsPerWindow {
		t.Fatalf("%d splitters, %d fill calls over one shard of %d answers; want none, on a shard wide enough to have them", s, loop.FillCalls, h.Total())
	}
	for i := int64(0); i < h.Total(); i += 7 {
		if _, err := h.Access(i); err != nil {
			t.Fatal(err)
		}
	}
	probes := (h.Total() + 6) / 7
	if a, r, p := loop.AccessCalls.Load(), loop.RankCalls.Load(), loop.Pivots.Load(); a != probes || r != 0 || p != probes {
		t.Fatalf("%d probes cost %d accesses of %d positions and %d rank rounds; want one position each, no ranks", probes, a, p, r)
	}
}

// TestRemoteRangePrimesInParallel: a range over P remote parts pays ONE
// round trip before its first row — the initial window fetches leave
// together — not P sequential ones.
func TestRemoteRangePrimesInParallel(t *testing.T) {
	const (
		p       = 4
		latency = 40 * time.Millisecond
	)
	// Four partition values per shard, every x joined with all of them:
	// consecutive answers of the order "x, y, z" spread evenly over the
	// shards, so the primed windows cover the range with no refill.
	var ys []values.Value
	perShard := make([]int, p)
	for v := values.Value(0); len(ys) < 4*p; v++ {
		if s := shard.ShardOf(v, p); perShard[s] < 4 {
			perShard[s]++
			ys = append(ys, v)
		}
	}
	in := database.NewInstance()
	for _, y := range ys {
		in.AddRow("S", y, 0)
		for x := values.Value(0); x < 40; x++ {
			in.AddRow("R", x, y)
		}
	}
	q := cq.MustParse(twoPath)
	l, err := order.ParseLex(q, "x, y, z")
	if err != nil {
		t.Fatal(err)
	}
	h, loop := remoteHandle(t, q, in, shard.Kind{Lex: l}, p)
	if h.Total() < 512 {
		t.Fatalf("instance too small: %d answers", h.Total())
	}
	loop.Delay = latency
	start := time.Now()
	rows, err := h.AppendRange(nil, q.Head, 0, 512)
	elapsed := time.Since(start)
	if err != nil || len(rows) != 512*len(q.Head) {
		t.Fatalf("range: %d values, %v", len(rows), err)
	}
	// Refills are sequential by design; this window needs none, so the
	// whole range is the one primed round trip.
	if n := loop.RangeCalls.Load(); n != p {
		t.Fatalf("%d range fetches, want the %d primed windows and no refill", n, p)
	}
	if elapsed >= 2*latency {
		t.Fatalf("512-row range over %d parts took %v at %v per round trip; want about one round trip, not %d", p, elapsed, latency, p)
	}
}

// TestRemoteLocateStopsBetweenRounds: a caller that gives up while a
// round is in flight gets its error before the next round starts — not
// one more call leaves. The instance is deep enough that the splitters
// leave a search two rounds to run.
func TestRemoteLocateStopsBetweenRounds(t *testing.T) {
	q := cq.MustParse(twoPath)
	h, loop := remoteHandle(t, q, deepInstance(), remoteCases(t)[0].kind(q), 4)
	sent := func() int64 { return loop.AccessCalls.Load() + loop.RankCalls.Load() }
	// A probe that needs more than the one round.
	k := int64(-1)
	for c := h.Total() / 2; c < h.Total() && k < 0; c++ {
		before := sent()
		if _, err := h.Access(c); err != nil {
			t.Fatal(err)
		}
		if sent()-before >= 4 { // two rounds of two calls, then the fetch
			k = c
		}
	}
	if k < 0 {
		t.Fatalf("no probe of the upper half of %d answers needs two rounds behind %d splitters", h.Total(), len(h.Splitters()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := sent()
	loop.OnCall = func() {
		if sent() == before+2 { // round 1's rank call is in flight
			cancel()
		}
	}
	_, err := h.AccessCtx(ctx, k)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Access cancelled mid-search = %v, want context.Canceled", err)
	}
	if n := sent() - before; n != 2 {
		t.Fatalf("%d calls left for a search cancelled during its first round, want 2", n)
	}
}

// TestOwnedProbeAllocs pins the node-side cost of one batched pivot fetch
// and one range window: the answer block's two slices — the fetch's
// ranks ride in the answers' backing array — and nothing per shard run:
// the probe buffers are borrowed from the structures' pools (a fresh
// LexBuf per run was four allocations each).
func TestOwnedProbeAllocs(t *testing.T) {
	if shardtest.RaceEnabled() {
		t.Skip("sync.Pool drops items at random under -race")
	}
	q, err := cq.Parse(twoPath)
	if err != nil {
		t.Fatal(err)
	}
	lay := layouts()[4]
	pt, err := shard.Choose(q, "y", lay.p)
	if err != nil {
		t.Fatal(err)
	}
	o, err := shard.Build(context.Background(), q, lay.in, remoteCases(t)[0].kind(q), pt, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	shards, pos := make([]int, 32), make([]int64, 32)
	for i := range pos {
		shards[i] = 1 + 2*(i/16)
		n, err := o.Total(shards[i])
		if err != nil || n < 16 {
			t.Fatalf("shard %d total %d, %v", shards[i], n, err)
		}
		pos[i] = int64(i%16) * n / 16
	}
	// The fetch prices each answer on the given owned shards, in their
	// order; on its own shard the rank is its position.
	out, ranks, err := o.AccessBatch(shards, pos, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range out {
		for j, s := range []int{3, 1} {
			if r, _, err := o.RankBatch([]order.Answer{a}, []int{s}); err != nil || ranks[2*i+j] != r[0] || (s == shards[i] && r[0] != pos[i]) {
				t.Fatalf("answer %d (shard %d, position %d) priced %d on shard %d, Rank says %v (%v)", i, shards[i], pos[i], ranks[2*i+j], s, r, err)
			}
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if out, ranks, err := o.AccessBatch(shards, pos, []int{3, 1}); err != nil || len(out) != len(pos) || len(ranks) != 2*len(pos) {
			t.Fatalf("AccessBatch = %d answers, %d ranks, %v", len(out), len(ranks), err)
		}
	})
	if allocs > 3 {
		t.Fatalf("AccessBatch of 32 positions on 2 shards allocates %.0f times, ceiling 3", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if out, err := o.Range(3, 0, 16); err != nil || len(out) != 16 {
			t.Fatalf("Range = %d answers, %v", len(out), err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Range of 16 answers allocates %.0f times, ceiling 3", allocs)
	}
}
