package shard_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/values"
)

// deepInstance holds enough two-path answers (≈ 490 000) that a search
// still runs rounds behind a full splitter table.
func deepInstance() *database.Instance { return randomInstance(8, 12000, 12000, 100, 100) }

// mergedHandle builds all p shards in process and merges them; at p = 1
// it is the unsharded reference the merged handles must agree with,
// cheaper than sorting the baseline's answers where there are many.
func mergedHandle(t *testing.T, q *cq.Query, in *database.Instance, k shard.Kind, p int) *shard.Handle {
	t.Helper()
	pt, err := shard.Choose(q, "y", p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shard.Merge(shard.Build(context.Background(), q, in, k, pt, nil))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSplitterHits probes the ranks the table treats specially, on the
// skewed and the balanced layout and on an instance deep enough to need
// rounds after the seeding, for every structure kind, over remote parts
// and in process: k = the rank of a splitter — answered by one fetch
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
				ref := mergedHandle(t, q, lay.in, k, 1)
				remote, loop := remoteHandle(t, q, lay.in, k, lay.p)
				merged := mergedHandle(t, q, lay.in, k, lay.p)
				var dst, want []values.Value
				for _, h := range []*shard.Handle{remote, merged} {
					sums := h.Splitters()
					if len(sums) == 0 || !slices.IsSorted(sums) || len(slices.Compact(slices.Clone(sums))) != len(sums) {
						t.Fatalf("%d splitters, want a strictly ascending table", len(sums))
					}
					// Every seventh splitter, to keep -race runs short.
					for i := 0; i < len(sums); i += 7 {
						for c := max(sums[i]-1, 0); c <= min(sums[i]+1, h.Total()-1); c++ {
							a0, r0, p0 := loop.AccessCalls.Load(), loop.RankCalls.Load(), loop.Pivots.Load()
							got, err := h.Access(c)
							if x, _ := ref.Access(c); err != nil || !slices.Equal(got, x) {
								t.Fatalf("k=%d beside splitter %d: %v (%v), unsharded %v", c, sums[i], got, err, x)
							}
							a, r, p := loop.AccessCalls.Load()-a0, loop.RankCalls.Load()-r0, loop.Pivots.Load()-p0
							if h == remote && c == sums[i] && (a != 1 || r != 0 || p != 1) {
								t.Fatalf("k=%d is a splitter: %d accesses of %d positions and %d rank rounds, want one fetch", c, a, p, r)
							}
							// A range starts from the cursors locate leaves.
							dst, err = h.AppendRange(dst[:0], q.Head, c, min(c+3, h.Total()))
							if want, _ = ref.AppendRange(want[:0], q.Head, c, min(c+3, h.Total())); err != nil || !slices.Equal(dst, want) {
								t.Fatalf("range from k=%d: %v (%v), unsharded %v", c, dst, err, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestSplitterFillStopsBetweenBatches: the fill is a handful of ordinary
// rounds at assembly — ⌈S/MaxPivots⌉ access and rank scatters, none
// later — and a caller that gives up during one gets its error before
// the next leaves, and no handle.
func TestSplitterFillStopsBetweenBatches(t *testing.T) {
	lay := layouts()[4]
	q := cq.MustParse(twoPath)
	k := remoteCases(t)[0].kind(q)
	h, loop := remoteHandle(t, q, lay.in, k, lay.p)
	s := len(h.Splitters())
	batches := int64((s + shard.MaxPivots - 1) / shard.MaxPivots)
	if s != lay.p*shard.SplittersPerShard || batches < 2 || loop.FillCalls != 2*batches || loop.FillMaxBatch != shard.MaxPivots {
		t.Fatalf("%d splitters filled by %d calls of up to %d pivots; want %d·%d in %d batches of two calls", s, loop.FillCalls, loop.FillMaxBatch, lay.p, shard.SplittersPerShard, batches)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loop.OnCall = func() {
		if loop.AccessCalls.Load()+loop.RankCalls.Load() == 2 { // batch 1's rank scatter is in flight
			cancel()
		}
	}
	if h, err := loop.Handle(ctx, k); !errors.Is(err, context.Canceled) || h != nil {
		t.Fatalf("handle assembled under a context cancelled mid-fill = %v, %v; want none, context.Canceled", h, err)
	}
	if loop.FillCalls != 2 {
		t.Fatalf("%d calls left for a fill cancelled during its first batch, want 2", loop.FillCalls)
	}
}

// TestSplitterTableBounded pins the table's size: SplittersPerShard per
// shard while that fits maxSplitterBytes, fewer per shard past it, and
// never more than 1 MiB of S·(P+2) words; a quarter of that over
// in-process parts. The capped table still seeds exact searches.
func TestSplitterTableBounded(t *testing.T) {
	q := cq.MustParse(twoPath)
	k := remoteCases(t)[0].kind(q)
	const maxBytes = 1 << 20
	for _, p := range []int{4, shard.MaxShards} {
		per := min(shard.SplittersPerShard, maxBytes/(8*(p+2))/p)
		// One answer per partition value, 176 per shard more than its
		// share on average: every shard is wide enough.
		n := p * (per + 176)
		in := database.NewInstance()
		for i := 0; i < n; i++ {
			in.AddRow("R", values.Value(i%97), values.Value(i))
			in.AddRow("S", values.Value(i), values.Value(i%89))
		}
		remote, _ := remoteHandle(t, q, in, k, p)
		for s, total := range remote.PartTotals() {
			if total <= int64(per) {
				t.Fatalf("P=%d: shard %d holds %d answers, too narrow for %d splitters", p, s, total, per)
			}
		}
		s := len(remote.Splitters())
		if bytes := s * (p + 2) * 8; s != per*p || bytes > maxBytes || (p == shard.MaxShards && per >= shard.SplittersPerShard) {
			t.Fatalf("P=%d: %d splitters (%d bytes), want %d per shard within %d bytes", p, s, bytes, per, maxBytes)
		}
		merged := mergedHandle(t, q, in, k, p)
		if s := len(merged.Splitters()); s != per/4*p {
			t.Fatalf("P=%d in process: %d splitters, want %d per shard", p, s, per/4)
		}
		ref := mergedHandle(t, q, in, k, 1)
		for i := int64(0); i < ref.Total(); i += 41 {
			x, _ := ref.Access(i)
			for _, h := range []*shard.Handle{remote, merged} {
				if got, err := h.Access(i); err != nil || !slices.Equal(got, x) {
					t.Fatalf("P=%d k=%d: %v (%v), unsharded %v", p, i, got, err, x)
				}
			}
		}
	}
}
