package shard_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/values"
)

// fanOut joins each of ys partition values to xs xs and zs zs: ys·xs·zs
// two-path answers from ys·(xs+zs) rows.
func fanOut(ys, xs, zs int) *database.Instance {
	in := database.NewInstance()
	for y := range values.Value(ys) {
		for x := range values.Value(xs) {
			in.AddRow("R", x, y)
		}
		for z := range values.Value(zs) {
			in.AddRow("S", y, z)
		}
	}
	return in
}

// deepInstance holds 10⁷ two-path answers, so that a search whose
// bracketing splitters lie in two shards still runs two rounds behind a
// full splitter table.
func deepInstance() *database.Instance { return fanOut(200, 200, 250) }

// unsharded builds the one structure of kind k over the whole instance:
// the reference the sharded handles must agree with, cheaper than
// sorting the baseline's answers where there are many.
func unsharded(t *testing.T, q *cq.Query, in *database.Instance, k shard.Kind) access.Structure {
	t.Helper()
	st, _, err := k.Build(context.Background(), q, in)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mergedHandle builds all p shards, partitioned on y, in process and
// merges them.
func mergedHandle(t *testing.T, q *cq.Query, in *database.Instance, k shard.Kind, p int) *shard.Handle {
	t.Helper()
	return mergedOn(t, q, in, k, "y", p)
}

// TestSplitterHits probes the ranks the table treats specially, on the
// skewed and the balanced layout and on an instance deep enough to need
// rounds after the seeding, for every structure kind, over a loopback
// and through Merge: k = the rank of a splitter — answered by one fetch
// from the splitter's owner and no rank round — and its two neighbours,
// where the splitter is a bracket and its owner's window starts one past
// it. Answers and the range cursors the search leaves behind must match
// the unsharded structure.
func TestSplitterHits(t *testing.T) {
	lays := layouts()
	for _, lay := range []layout{lays[0], lays[4], {"deep", 4, deepInstance()}} {
		for _, rc := range remoteCases(t) {
			t.Run(lay.name+"/"+rc.name, func(t *testing.T) {
				q := cq.MustParse(rc.query)
				k := rc.kind(q)
				if lay.name == "deep" && k.Materialized {
					t.Skip("materializing the deep instance takes seconds under -race; the search is the layered kind's")
				}
				ref := unsharded(t, q, lay.in, k)
				remote, loop := remoteHandle(t, q, lay.in, k, lay.p)
				merged := mergedHandle(t, q, lay.in, k, lay.p)
				var dst, want []values.Value
				for _, h := range []*shard.Handle{remote, merged} {
					sums := h.Splitters()
					if len(sums) == 0 || !slices.IsSorted(sums) || len(slices.Compact(slices.Clone(sums))) != len(sums) {
						t.Fatalf("%d splitters, want a strictly ascending table", len(sums))
					}
					// Every seventh splitter, or ≈ 600 spread over a
					// larger table, to keep -race runs short.
					for i := 0; i < len(sums); i += max(7, len(sums)/600) {
						for c := max(sums[i]-1, 0); c <= min(sums[i]+1, h.Total()-1); c++ {
							a0, r0, p0 := loop.AccessCalls.Load(), loop.RankCalls.Load(), loop.Pivots.Load()
							got, err := h.Access(context.Background(), c)
							if x, _ := ref.Access(c); err != nil || !slices.Equal(got, x) {
								t.Fatalf("k=%d beside splitter %d: %v (%v), unsharded %v", c, sums[i], got, err, x)
							}
							a, r, p := loop.AccessCalls.Load()-a0, loop.RankCalls.Load()-r0, loop.Pivots.Load()-p0
							if h == remote && c == sums[i] && (a != 1 || r != 0 || p != 1) {
								t.Fatalf("k=%d is a splitter: %d accesses of %d positions and %d rank rounds, want one fetch", c, a, p, r)
							}
							// A range starts from the cursors locate leaves.
							dst, err = h.AppendRange(dst[:0], q.Head, c, min(c+3, h.Total()))
							if want, _ = ref.AppendRange(want[:0], c, min(c+3, h.Total())); err != nil || !slices.Equal(dst, want) {
								t.Fatalf("range from k=%d: %v (%v), unsharded %v", c, dst, err, want)
							}
						}
					}
				}
			})
		}
	}
}

// laneMeter watches the splitter fill's lanes over a loopback: a fill
// batch is one priced round, whose lane is the node it fetches from.
// It wraps every node and sorts their calls by round: per lane, the
// batches sent and the most in flight at once, across lanes the most in
// flight at once, and the rounds that fetched from two nodes.
type laneMeter struct {
	*shardtest.Loopback
	mu               sync.Mutex
	sent             []int
	lane             map[int64]int // round → its lane
	live             map[int64]int // round → its calls in flight
	mostOne, mostAll int
	crossed          int
}

func newLaneMeter(owned []*shard.Owned) *laneMeter {
	m := &laneMeter{Loopback: shardtest.New(owned...), sent: make([]int, len(owned)), lane: map[int64]int{}, live: map[int64]int{}}
	m.Wrap = func(i int, n shard.Node) shard.Node { return meteredNode{n, m, i} }
	return m
}

// enter records a call of round rd to node i, a fetch when fetch is
// set, and returns the call's end.
func (m *laneMeter) enter(rd shard.Round, i int, fetch bool) func() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fetch {
		if _, ok := m.lane[rd.Seq]; ok {
			m.crossed++
		}
		m.lane[rd.Seq] = i
		m.sent[i]++
	}
	m.live[rd.Seq]++
	perLane := map[int]int{}
	for seq := range m.live {
		perLane[m.lane[seq]]++
	}
	for _, n := range perLane {
		m.mostOne = max(m.mostOne, n)
	}
	m.mostAll = max(m.mostAll, len(m.live))
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.live[rd.Seq]--; m.live[rd.Seq] == 0 {
			delete(m.live, rd.Seq)
		}
	}
}

// meteredNode reports node i's calls to the meter.
type meteredNode struct {
	shard.Node
	m *laneMeter
	i int
}

func (n meteredNode) AccessBatch(ctx context.Context, shards []int, pos []int64, priced bool) ([]order.Answer, []int64, error) {
	rd, _ := shard.RoundOf(ctx)
	defer n.m.enter(rd, n.i, true)()
	return n.Node.AccessBatch(ctx, shards, pos, priced)
}

func (n meteredNode) RankBatch(ctx context.Context, answers []order.Answer) ([]int64, []bool, error) {
	rd, _ := shard.RoundOf(ctx)
	defer n.m.enter(rd, n.i, false)()
	return n.Node.RankBatch(ctx, answers)
}

// TestSplitterFillLanes: on every layout and structure kind whose table
// is priced the fill runs one lane per node, whose batches hold at most MaxPivots
// positions, all on the lane's node, one batch in flight; lanes overlap
// in time; and the table is exactly the one a fill in a single lane
// prices.
func TestSplitterFillLanes(t *testing.T) {
	overlapped := false
	for _, lay := range layouts() {
		for _, rc := range remoteCases(t) {
			q := cq.MustParse(rc.query)
			k := rc.kind(q)
			owned := ownedBuilds(t, q, lay.in, k, lay.p, min(lay.p, 2))
			m := newLaneMeter(owned)
			m.Delay = time.Millisecond
			h, err := m.Handle(context.Background(), k)
			if err != nil {
				t.Fatalf("%s/%s: %v", lay.name, rc.name, err)
			}
			if m.mostOne > 1 || m.crossed > 0 || m.FillMaxBatch > shard.MaxPivots {
				t.Fatalf("%s/%s: a lane had %d batches in flight, %d batches spanned two lanes and the largest call held %d (cap %d)",
					lay.name, rc.name, m.mostOne, m.crossed, m.FillMaxBatch, shard.MaxPivots)
			}
			n, batches, lanes := h.SplitterFill()
			sent, busy := 0, 0
			for _, c := range m.sent {
				sent, busy = sent+c, busy+min(c, 1)
			}
			if boundaryFilled(h) {
				// Read off the groups: no lane, no batch, no call.
				if sent != 0 || batches != 0 || lanes != 0 || m.FillCalls != 0 {
					t.Fatalf("%s/%s: %d splitters read off the groups in %d batches over %d lanes; the lanes sent %v", lay.name, rc.name, n, batches, lanes, m.sent)
				}
				continue
			}
			if sent != batches || lanes != busy || (n > 0) != lay.tabled() {
				t.Fatalf("%s/%s: %d splitters in %d batches over %d lanes; the lanes sent %v", lay.name, rc.name, n, batches, lanes, m.sent)
			}
			sums, owner, ranks := shard.SplitterTable(h)
			seqSums, seqOwner, seqRanks, err := shard.SequentialSplitters(h)
			if err != nil || !slices.Equal(sums, seqSums) || !slices.Equal(owner, seqOwner) || !slices.Equal(ranks, seqRanks) {
				t.Fatalf("%s/%s: the lanes' table of %d splitters differs from a single lane's of %d (%v)", lay.name, rc.name, len(sums), len(seqSums), err)
			}
			overlapped = overlapped || m.mostAll > 1
		}
	}
	if !overlapped {
		t.Fatal("no two lanes ever had a batch in flight at once")
	}
}

// TestSplitterFillStopsBetweenBatches: a caller that gives up while
// every lane has a batch in flight stops each lane before its next
// batch, and gets context.Canceled and no handle.
func TestSplitterFillStopsBetweenBatches(t *testing.T) {
	q := cq.MustParse(twoPath)
	k := interleavedLex(t)(q)
	owned := ownedBuilds(t, q, randomInstance(7, 12000, 1000, 100, 20), k, 4, 2)
	h, err := newLaneMeter(owned).Handle(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if n, batches, lanes := h.SplitterFill(); lanes != 2 || batches < 2*lanes {
		t.Fatalf("%d splitters in %d batches over %d lanes; want two lanes of two batches or more", n, batches, lanes)
	}

	m := newLaneMeter(owned)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	both := make(chan struct{})
	var calls atomic.Int64
	m.OnCall = func() {
		// A lane's first call is its first batch's fetch, and the lane
		// sends nothing else while it waits here: the second call is
		// the other lane's.
		switch calls.Add(1) {
		case 1:
			select {
			case <-both:
			case <-time.After(10 * time.Second):
			}
		case 2:
			cancel()
			close(both)
		}
	}
	if h, err := m.Handle(ctx, k); !errors.Is(err, context.Canceled) || h != nil {
		t.Fatalf("handle assembled under a context cancelled mid-fill = %v, %v; want none, context.Canceled", h, err)
	}
	if !slices.Equal(m.sent, []int{1, 1}) || calls.Load() != 2 {
		t.Fatalf("lanes sent %v batches and %d calls after a cancel during both first batches; want one batch each, two calls", m.sent, calls.Load())
	}
}

// TestSplitterNarrowShards: shards narrower than their share still
// contribute one splitter in every m·P answers, so the table is
// strictly ascending and seeds exact searches: the rank of a splitter
// is one fetch from its owner and no round over remote parts, and every
// rank matches the baseline.
func TestSplitterNarrowShards(t *testing.T) {
	const p = 4
	q := cq.MustParse(twoPath)
	k := interleavedLex(t)(q)
	in := randomInstance(10, 160, 160, 40, 12)
	sorted := baseline.SortedByLex(q, in, k.Lex)
	remote, loop := remoteHandle(t, q, in, k, p)
	merged := mergedHandle(t, q, in, k, p)
	for _, h := range []*shard.Handle{remote, merged} {
		sums, want := h.Splitters(), int64(0)
		for _, n := range h.PartTotals() {
			want += n / (shard.PivotsPerWindow * p)
		}
		if slices.Max(h.PartTotals()) >= 256 || want == 0 || int64(len(sums)) != want || !slices.IsSorted(sums) || len(slices.Compact(slices.Clone(sums))) != len(sums) {
			t.Fatalf("%d splitters %v over shards of %v; want %d, strictly ascending, over shards narrower than 256", len(sums), sums, h.PartTotals(), want)
		}
		for i, x := range sorted {
			a0, r0 := loop.AccessCalls.Load(), loop.RankCalls.Load()
			got, err := h.Access(context.Background(), int64(i))
			if err != nil || !slices.Equal(got, x) {
				t.Fatalf("k=%d: %v (%v), baseline %v", i, got, err, x)
			}
			if a, r := loop.AccessCalls.Load()-a0, loop.RankCalls.Load()-r0; h == remote && slices.Contains(sums, int64(i)) && (a != 1 || r != 0) {
				t.Fatalf("k=%d is a splitter: %d accesses and %d rank calls, want one fetch", i, a, r)
			}
		}
	}
}

// TestSplitterTableBounded pins the table's size: SplittersPerShard per
// shard while that fits maxSplitterBytes, fewer per shard past it, and
// never more than 4 MiB of S·(P+2) words. No shard contributes more than
// one splitter in every m·P answers. Merge's one lane prices exactly the
// table the loopback's two lanes price, and the capped table still seeds
// exact searches.
func TestSplitterTableBounded(t *testing.T) {
	q := cq.MustParse(twoPath)
	k := interleavedLex(t)(q)
	const maxBytes = 4 << 20
	// 3.2·10⁶ answers: at P = 4 every shard holds a full share's m·P
	// answers per splitter.
	in := fanOut(1000, 40, 80)
	ref := unsharded(t, q, in, k)
	for _, p := range []int{4, shard.MaxShards} {
		per := min(shard.SplittersPerShard, maxBytes/(8*(p+2))/p)
		remote, _ := remoteHandle(t, q, in, k, p)
		merged := mergedHandle(t, q, in, k, p)
		want, full := 0, false
		for _, n := range remote.PartTotals() {
			stride := int64(shard.PivotsPerWindow * p)
			want += int(min(int64(per), n/stride))
			full = full || n/stride >= int64(per)
			if p == 4 && n/stride < int64(per) {
				t.Fatalf("P=%d: a shard of %d answers is too narrow for a full share", p, n)
			}
		}
		s := len(remote.Splitters())
		if bytes := s * (p + 2) * 8; s != want || !full || bytes > maxBytes || (p == 4 && s != 4*shard.SplittersPerShard) || (p == shard.MaxShards && per >= shard.SplittersPerShard) {
			t.Fatalf("P=%d: %d splitters (%d bytes), want %d, up to %d per shard within %d bytes", p, s, bytes, want, per, maxBytes)
		}
		sums, owner, ranks := shard.SplitterTable(remote)
		mSums, mOwner, mRanks := shard.SplitterTable(merged)
		if !slices.Equal(sums, mSums) || !slices.Equal(owner, mOwner) || !slices.Equal(ranks, mRanks) {
			t.Fatalf("P=%d: Merge priced a table of %d splitters, the loopback's lanes one of %d; want the same", p, len(mSums), s)
		}
		for i := int64(0); i < ref.Total(); i += ref.Total()/500 + 1 {
			x, _ := ref.Access(i)
			for _, h := range []*shard.Handle{remote, merged} {
				if got, err := h.Access(context.Background(), i); err != nil || !slices.Equal(got, x) {
					t.Fatalf("P=%d k=%d: %v (%v), unsharded %v", p, i, got, err, x)
				}
			}
		}
	}
}
