package shard_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/values"
)

// leadBuilds builds p shards partitioned on x as two owners, shard s on
// owner s mod 2, as two nodes would.
func leadBuilds(t *testing.T, q *cq.Query, in *database.Instance, k shard.Kind, p int) []*shard.Owned {
	t.Helper()
	pt, err := shard.Choose(q, "x", p)
	if err != nil {
		t.Fatal(err)
	}
	var owned []*shard.Owned
	for first := range 2 {
		var shards []int
		for s := first; s < p; s += 2 {
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

// TestBoundaryTable: on a partition on the order's leading variable x,
// ascending and descending, at P = 2 and 4, the splitter table is read
// off the shards' groups with no call to any node, over a loopback and
// through Merge alike, and every splitter is the first answer of a
// group, ranked exactly. Every k's Access and Rank, and windows that
// cross group boundaries, equal the unsharded structure's. Where every
// group holds m·P answers or more each access is its one unpriced final
// fetch — no round, no Rank descent on any node; where groups are
// smaller, several share a bracket and rounds split it, exactly. Under
// a cap on its size the table keeps every ⌈G/cap⌉-th of its G
// boundaries.
func TestBoundaryTable(t *testing.T) {
	q := cq.MustParse(twoPath)
	x, _ := q.VarByName("x")
	for _, fx := range []struct {
		name string
		in   *database.Instance
		wide bool // every group holds at least m·P answers at P = 4
	}{
		{"groups of 40", fanOut(8, 40, 5), true},
		{"groups of about 2", randomInstance(11, 120, 60, 60, 10), false},
	} {
		for _, spec := range []string{"x, y, z", "x desc, y desc, z"} {
			for _, p := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/%s/P=%d", fx.name, spec, p), func(t *testing.T) {
					k := lexKind(t, spec, false)(q)
					ref := unsharded(t, q, fx.in, k)
					owned := leadBuilds(t, q, fx.in, k, p)
					loop := shardtest.New(owned...)
					remote, err := loop.Handle(context.Background(), k)
					if err != nil {
						t.Fatal(err)
					}
					merged := mergedOn(t, q, fx.in, k, "x", p)
					sums, owner, ranks := shard.SplitterTable(remote)
					n, batches, lanes := remote.SplitterFill()
					if loop.FillCalls != 0 || batches != 0 || lanes != 0 || n != len(sums) || (fx.wide && n == 0) {
						t.Fatalf("%d splitters read off the groups in %d batches over %d lanes, %d calls", n, batches, lanes, loop.FillCalls)
					}
					mSums, mOwner, mRanks := shard.SplitterTable(merged)
					if !slices.Equal(sums, mSums) || !slices.Equal(owner, mOwner) || !slices.Equal(ranks, mRanks) {
						t.Fatalf("Merge read a table of %d splitters, the loopback one of %d; want the same", len(mSums), len(sums))
					}
					gap := int64(shard.PivotsPerWindow * p)
					for c, sum := range sums {
						row := ranks[c*p : (c+1)*p]
						var below int64
						for _, r := range row {
							below += r
						}
						at, _ := ref.Access(sum)
						prev, _ := ref.Access(sum - 1)
						prevSum := int64(0)
						if c > 0 {
							prevSum = sums[c-1]
						}
						if below != sum || at[x] == prev[x] || shard.ShardOf(at[x], p) != owner[c] || sum-prevSum < gap {
							t.Fatalf("splitter %d: rank %d, ranks %v, owner %d: want the first answer of a group, at least %d past the last", c, sum, row, owner[c], gap)
						}
					}

					// Probe through counting nodes from here on: no Rank
					// descent may run for a search the table settles.
					var descents atomic.Int64
					for _, o := range owned {
						shard.CountRanks(o, &descents)
					}
					a0, r0, rounds0 := loop.AccessCalls.Load(), loop.RankCalls.Load(), loop.Rounds.Load()
					var got, want []values.Value
					for i := int64(0); i < ref.Total(); i++ {
						for _, h := range []*shard.Handle{remote, merged} {
							got, err = h.AppendTuple(got[:0], q.Head, i)
							want, _ = ref.AppendTuple(want[:0], i)
							if err != nil || !slices.Equal(got, want) {
								t.Fatalf("k=%d: %v (%v), unsharded %v", i, got, err, want)
							}
						}
					}
					a, r, rounds := loop.AccessCalls.Load()-a0, loop.RankCalls.Load()-r0, loop.Rounds.Load()-rounds0
					if fx.wide && (rounds != 0 || a != ref.Total() || r != 0 || descents.Load() != 0) {
						t.Fatalf("%d accesses: %d rounds, %d fetches, %d rank calls, %d Rank descents; want one unpriced fetch each", ref.Total(), rounds, a, r, descents.Load())
					}
					if !fx.wide && rounds == 0 {
						t.Fatalf("%d accesses over groups narrower than m·P = %d ran no round", ref.Total(), gap)
					}
					for i := int64(0); i < ref.Total(); i++ {
						a, _ := ref.Access(i)
						if rk, exact, err := remote.Rank(context.Background(), a); err != nil || !exact || rk != i {
							t.Fatalf("Rank(answer %d) = %d, %v, %v", i, rk, exact, err)
						}
					}
					// Windows that start, end and straddle at every
					// splitter, and one across the whole instance.
					windows := [][2]int64{{0, ref.Total()}}
					for _, s := range sums {
						windows = append(windows, [2]int64{s - 3, s}, [2]int64{s, s + 3}, [2]int64{s - 50, s + 50})
					}
					for _, w := range windows {
						k0, k1 := max(w[0], 0), min(w[1], ref.Total())
						for _, h := range []*shard.Handle{remote, merged} {
							got, err = h.AppendRange(got[:0], q.Head, k0, k1)
							want, _ = ref.AppendRange(want[:0], k0, k1)
							if err != nil || !slices.Equal(got, want) {
								t.Fatalf("range [%d, %d): %d values (%v), unsharded %d", k0, k1, len(got), err, len(want))
							}
						}
					}

					// Under a cap of a third of the boundaries, every
					// ⌈G/cap⌉-th is kept, and the searches stay exact.
					if len(sums) < 3 {
						return
					}
					capped := leadBuilds(t, q, fx.in, k, p)
					thin, err := shardtest.New(capped...).Handle(context.Background(), k)
					if err != nil {
						t.Fatal(err)
					}
					rows := len(sums) / 3
					if err := shard.RefillBoundaries(thin, capped, rows); err != nil {
						t.Fatal(err)
					}
					stride := (len(sums) + rows - 1) / rows
					var kept []int64
					for i := stride - 1; i < len(sums); i += stride {
						kept = append(kept, sums[i])
					}
					if got := thin.Splitters(); !slices.Equal(got, kept) {
						t.Fatalf("capped at %d of %d splitters: %v, want every %d-th, %v", rows, len(sums), got, stride, kept)
					}
					for i := int64(0); i < ref.Total(); i += 7 {
						got, err = thin.AppendTuple(got[:0], q.Head, i)
						want, _ = ref.AppendTuple(want[:0], i)
						if err != nil || !slices.Equal(got, want) {
							t.Fatalf("capped table: k=%d: %v (%v), unsharded %v", i, got, err, want)
						}
					}
				})
			}
		}
	}
}

// mergedOn builds all p shards partitioned on the variable by in
// process and merges them.
func mergedOn(t *testing.T, q *cq.Query, in *database.Instance, k shard.Kind, by string, p int) *shard.Handle {
	t.Helper()
	pt, err := shard.Choose(q, by, p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shard.Merge(shard.Build(context.Background(), q, in, k, pt, nil))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestUnpricedFetchRanksNothing: a priced fetch runs a Rank descent per
// answer on every owned shard but its own; an unpriced one — a search's
// final fetch — runs none and returns no ranks.
func TestUnpricedFetchRanksNothing(t *testing.T) {
	q := cq.MustParse(twoPath)
	k := interleavedLex(t)(q)
	o := ownedBuilds(t, q, layouts()[4].in, k, 4, 2)[1]
	var descents atomic.Int64
	shard.CountRanks(o, &descents)
	shards, pos := []int{1, 3, 3}, []int64{0, 5, 9}
	priced, ranks, err := o.Node().AccessBatch(context.Background(), shards, pos, true)
	if err != nil || len(ranks) != 2*len(pos) || descents.Load() != int64(len(pos)) {
		t.Fatalf("priced fetch: %d ranks, %d Rank descents, %v; want %d of each", len(ranks), descents.Load(), err, len(pos))
	}
	descents.Store(0)
	fetched, ranks, err := o.Node().AccessBatch(context.Background(), shards, pos, false)
	if err != nil || len(ranks) != 0 || descents.Load() != 0 || fmt.Sprint(fetched) != fmt.Sprint(priced) {
		t.Fatalf("unpriced fetch: %v with %d ranks and %d Rank descents (%v); want %v, none and none", fetched, len(ranks), descents.Load(), err, priced)
	}
}

// TestRangeInsideOneShard: on a partition on the order's leading
// variable, a range window the splitter table places inside one shard —
// inside one group, from or up to a group boundary, from rank 0, up to
// Total() — sends exactly one Range call, of exactly its rows, and no
// AccessBatch or RankBatch. A window straddling a boundary between two
// shards sends each of them one Range call, and at most one refill, and
// no other shard any. Every window's rows equal the unsharded
// structure's, over a loopback and through Merge alike, and a caller
// that already gave up sends nothing.
func TestRangeInsideOneShard(t *testing.T) {
	const p = 4
	q := cq.MustParse(twoPath)
	in := fanOut(8, 40, 5) // 40 groups of 40 answers, each at least m·P
	for _, spec := range []string{"x, y, z", "x desc, y desc, z"} {
		t.Run(spec, func(t *testing.T) {
			k := lexKind(t, spec, false)(q)
			ref := unsharded(t, q, in, k)
			loop := shardtest.New(leadBuilds(t, q, in, k, p)...)
			remote, err := loop.Handle(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			merged := mergedOn(t, q, in, k, "x", p)
			var per [p]atomic.Int64
			loop.OnRange = func(s int, _, _ int64) { per[s].Add(1) }
			total := ref.Total()
			bounds := append(append([]int64{0}, remote.Splitters()...), total)
			if len(bounds) != 41 {
				t.Fatalf("%d group boundaries, want 41", len(bounds))
			}
			x, _ := q.VarByName("x")
			shardAt := func(k int64) int {
				a, _ := ref.Access(k)
				return shard.ShardOf(a[x], p)
			}
			var got, want []values.Value
			check := func(k0, k1 int64, straddle bool) {
				t.Helper()
				a0, r0, g0, rows0 := loop.AccessCalls.Load(), loop.RankCalls.Load(), loop.RangeCalls.Load(), loop.RangeRows.Load()
				for s := range per {
					per[s].Store(0)
				}
				for _, h := range []*shard.Handle{remote, merged} {
					got, err = h.AppendRange(got[:0], q.Head, k0, k1)
					want, _ = ref.AppendRange(want[:0], k0, k1)
					if err != nil || !slices.Equal(got, want) {
						t.Fatalf("range [%d, %d): %v (%v), unsharded %v", k0, k1, got, err, want)
					}
				}
				a, r, g, rows := loop.AccessCalls.Load()-a0, loop.RankCalls.Load()-r0, loop.RangeCalls.Load()-g0, loop.RangeRows.Load()-rows0
				if a != 0 || r != 0 {
					t.Fatalf("range [%d, %d) sent %d AccessBatch and %d RankBatch calls; the table settles its search", k0, k1, a, r)
				}
				if !straddle {
					if g != 1 || rows != k1-k0 || per[shardAt(k0)].Load() != 1 {
						t.Fatalf("range [%d, %d) inside shard %d: %d Range calls of %d rows, want one of %d", k0, k1, shardAt(k0), g, rows, k1-k0)
					}
					return
				}
				lo, hi := shardAt(k0), shardAt(k1-1)
				for s := range per {
					if n := per[s].Load(); (s == lo || s == hi) != (n >= 1 && n <= 2) {
						t.Fatalf("range [%d, %d) over shards %d and %d sent shard %d %d Range calls", k0, k1, lo, hi, s, n)
					}
				}
			}
			check(0, 17, false)
			check(total-25, total, false)
			straddled := 0
			for i := 0; i+1 < len(bounds); i++ {
				g0, g1 := bounds[i], bounds[i+1]
				check(g0+5, g1-10, false)
				check(g0+12, g1, false)
				check(g0, g0+9, false)
				if g1 < total && shardAt(g1-1) != shardAt(g1) {
					check(g1-10, g1+10, true)
					straddled++
				}
			}
			if straddled == 0 {
				t.Fatal("no two adjacent groups sit in different shards")
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			a0, r0, g0 := loop.AccessCalls.Load(), loop.RankCalls.Load(), loop.RangeCalls.Load()
			for _, w := range [][2]int64{{0, 17}, {bounds[3] + 5, bounds[4]}, {bounds[3] - 10, bounds[3] + 10}} {
				if _, err := remote.AppendRangeCtx(ctx, nil, q.Head, w[0], w[1]); !errors.Is(err, context.Canceled) {
					t.Fatalf("range [%d, %d) under a cancelled context = %v, want context.Canceled", w[0], w[1], err)
				}
			}
			if loop.AccessCalls.Load() != a0 || loop.RankCalls.Load() != r0 || loop.RangeCalls.Load() != g0 {
				t.Fatal("ranges under a cancelled context sent calls")
			}
		})
	}
}
