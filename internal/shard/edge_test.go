package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
)

// TestEmptyShardEdgeCases pins the network-path edge case: with few
// tuples and many shards, some shards receive ZERO tuples for the
// partitioned relation. Those shards must still build and answer
// Count=0 / Access→ErrOutOfBound, never error — a cluster node owning
// an empty slice of the hash space is a normal configuration, not a
// fault.
func TestEmptyShardEdgeCases(t *testing.T) {
	q, err := cq.Parse("Q(x, y, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	in := database.NewInstance()
	// One join chain: exactly one answer, so at most one of the 16
	// shards is non-empty.
	in.AddRow("R", 1, 2)
	in.AddRow("S", 2, 3)
	pt, err := Choose(q, "", 16)
	if err != nil {
		t.Fatal(err)
	}

	l, err := order.ParseLex(q, "x, y, z")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildLex(q, in, l, pt)
	if err != nil {
		t.Fatalf("BuildLex with empty shards: %v", err)
	}
	if sh.Total() != 1 {
		t.Fatalf("Total = %d, want 1", sh.Total())
	}
	empties := 0
	for _, n := range sh.PartTotals() {
		if n == 0 {
			empties++
		}
	}
	if empties != 15 {
		t.Fatalf("%d empty shards, want 15", empties)
	}
	a, err := sh.Access(0)
	if err != nil || a[q.Head[0]] != 1 || a[q.Head[1]] != 2 || a[q.Head[2]] != 3 {
		t.Fatalf("Access(0) = %v, %v", a, err)
	}
	if _, err := sh.Access(1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("Access(1) = %v, want ErrOutOfBound", err)
	}
	if n, err := Count(q, in, pt, nil); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v, want 1", n, err)
	}

	// Materialized fallback over the same mostly-empty split.
	if sh := mustBuildMatLex(t, q, in, l, pt); sh.Total() != 1 {
		t.Fatalf("BuildMaterializedLex with empty shards: total %d", sh.Total())
	}

	// The SUM structure (tractable for a single atom) with one tuple
	// and 16 shards: 15 empty SUM parts must build and merge.
	qs, err := cq.Parse("Q(x, y) :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	ins := database.NewInstance()
	ins.AddRow("R", 5, 7)
	pts, err := Choose(qs, "", 16)
	if err != nil {
		t.Fatal(err)
	}
	w := order.IdentitySum(qs.Head...)
	shs, err := buildAll(qs, ins, Kind{IsSum: true, Sum: w}, pts)
	if err != nil || shs.Total() != 1 {
		t.Fatalf("BuildSum with empty shards: err %v", err)
	}
	if _, err := shs.Access(1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("SUM Access(1) = %v, want ErrOutOfBound", err)
	}

	// The fully empty instance: every shard is empty, the structure
	// still builds and answers the empty answer set.
	emptyIn := database.NewInstance()
	emptyIn.SetRelation("R", database.NewRelation(2))
	emptyIn.SetRelation("S", database.NewRelation(2))
	sh, err = BuildLex(q, emptyIn, l, pt)
	if err != nil {
		t.Fatalf("BuildLex over empty instance: %v", err)
	}
	if sh.Total() != 0 {
		t.Fatalf("empty instance Total = %d", sh.Total())
	}
	if _, err := sh.Access(0); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("empty instance Access(0) = %v, want ErrOutOfBound", err)
	}
	if n, err := Count(q, emptyIn, pt, nil); err != nil || n != 0 {
		t.Fatalf("empty instance Count = %d, %v", n, err)
	}
}

func mustBuildMatLex(t *testing.T, q *cq.Query, in *database.Instance, l order.Lex, pt Partitioning) *Handle {
	t.Helper()
	sh, err := buildAll(q, in, Kind{Materialized: true, Lex: l}, pt)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestSplitP1Degenerate pins that P=1 "sharding" is exactly the
// unsharded structure: the split shares every relation by reference
// (zero copying) and the single-part handle answers identically to the
// plain structure.
func TestSplitP1Degenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q, in := pathQuery(t, rng, 300, 40)
	pt, err := Choose(q, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	outs := Split(q, in, pt)
	if len(outs) != 1 {
		t.Fatalf("Split P=1 returned %d instances", len(outs))
	}
	for _, rel := range []string{"R", "S"} {
		if outs[0].Relation(rel) != in.Relation(rel) {
			t.Fatalf("P=1 split copied relation %s instead of sharing it", rel)
		}
	}

	l, err := order.ParseLex(q, "x, y desc, z")
	if err != nil {
		t.Fatal(err)
	}
	single, err := access.BuildLex(q, in, l)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildLex(q, in, l, pt)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Total() != single.Total() {
		t.Fatalf("P=1 total %d, single %d", sh.Total(), single.Total())
	}
	for k := int64(0); k < sh.Total(); k++ {
		want, err := single.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range q.Head {
			if want[v] != got[v] {
				t.Fatalf("k=%d: sharded %v, single %v", k, got, want)
			}
		}
	}
}

// countingPart counts the probes that reach one in-process part.
type countingPart struct {
	access.Structure
	accesses, ranks *int
}

func (c countingPart) AccessInto(b *access.LexBuf, k int64) (order.Answer, error) {
	*c.accesses++
	return c.Structure.AccessInto(b, k)
}

func (c countingPart) Rank(a order.Answer) (int64, bool) {
	*c.ranks++
	return c.Structure.Rank(a)
}

// TestSingleOpenWindowIsOneAccess pins the single-open-window shortcut:
// once one shard window is left open the result's local index is
// determined, so a P = 1 handle answers a probe with exactly one part
// access and no rank at all (it used to binary-search its own window),
// and a P = 4 handle stops searching when three windows have closed.
// The per-shard cursors locate leaves behind still open ranges right.
func TestSingleOpenWindowIsOneAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q, in := pathQuery(t, rng, 300, 40)
	l, err := order.ParseLex(q, "x, y desc, z")
	if err != nil {
		t.Fatal(err)
	}
	single, err := access.BuildLex(q, in, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		pt, err := Choose(q, "", p)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := BuildLex(q, in, l, pt)
		if err != nil {
			t.Fatal(err)
		}
		var accesses, ranks int
		for i, pp := range sh.parts {
			sh.parts[i] = countingPart{Structure: pp, accesses: &accesses, ranks: &ranks}
		}
		total := sh.Total()
		for k := int64(0); k < total; k += 13 {
			accesses, ranks = 0, 0
			got, err := sh.Access(k)
			want, _ := single.Access(k)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("P=%d Access(%d) = %v (%v), single %v", p, k, got, err, want)
			}
			if p == 1 && (accesses != 1 || ranks != 0) {
				t.Fatalf("P=1 Access(%d) cost %d part accesses and %d ranks, want 1 and 0", k, accesses, ranks)
			}
			// Every iteration of the search is one access and P-1
			// ranks; the shortcut's access comes with none.
			if p > 1 && ranks > (p-1)*accesses {
				t.Fatalf("P=%d Access(%d): %d ranks for %d accesses", p, k, ranks, accesses)
			}
		}
		// A range opens with locate(k0) and merges from the cursors it
		// leaves in pr.ranks, whichever way the search ended; the search
		// fetches nothing once they are determined, so the k0-th answer
		// is read once, as its owner's first row.
		for k0 := int64(1); k0+40 <= total; k0 += total / 9 {
			accesses = 0
			got, err := sh.AppendRange(nil, q.Head, k0, k0+40)
			want, _ := single.AppendRange(nil, k0, k0+40)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("P=%d range [%d, %d) diverges from the single structure (%v)", p, k0, k0+40, err)
			}
			if p == 1 && accesses != 40 {
				t.Fatalf("P=1 range of 40 rows cost %d part accesses, want 40 (one per row, none for the search)", accesses)
			}
		}
	}
}

// TestOwnedBuild pins the node-side builders: building a subset of the
// shards yields the same per-shard totals, answers, and ranks the full
// in-process sharded handle computes for those shards.
func TestOwnedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, in := pathQuery(t, rng, 400, 30)
	pt, err := Choose(q, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := order.ParseLex(q, "x, y, z")
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildLex(q, in, l, pt)
	if err != nil {
		t.Fatal(err)
	}
	owned := []int{1, 3}
	o, err := Build(context.Background(), q, in, Kind{Lex: l}, pt, owned)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Shards(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("owned shards = %v", got)
	}
	if !sameLex(o.Completed(), full.Completed) {
		t.Fatalf("owned completed %v, full %v", o.Completed().Entries, full.Completed.Entries)
	}
	totals := full.PartTotals()
	for _, s := range owned {
		n, err := o.Total(s)
		if err != nil {
			t.Fatal(err)
		}
		if n != totals[s] {
			t.Fatalf("shard %d total %d, want %d", s, n, totals[s])
		}
		for k := int64(0); k < n; k += 7 {
			a, _, err := o.AccessBatch([]int{s}, []int64{k}, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, exact, err := o.RankBatch(a, []int{s})
			if err != nil || !exact[0] || r[0] != k {
				t.Fatalf("shard %d Rank(Access(%d)) = (%v, %v, %v)", s, k, r, exact, err)
			}
		}
		rows, err := o.Range(s, 0, min64(n, 10))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != min64(n, 10) {
			t.Fatalf("shard %d Range len %d", s, len(rows))
		}
	}
	if _, err := o.Total(0); err == nil {
		t.Fatal("probing a non-owned shard must error")
	}
	if _, _, err := o.AccessBatch([]int{2}, []int64{0}, nil); err == nil {
		t.Fatal("accessing a non-owned shard must error")
	}
	if _, err := Build(context.Background(), q, in, Kind{Lex: l}, pt, []int{9}); err == nil {
		t.Fatal("owned shard outside [0, P) must error")
	}

	// Count over a partition of the shards sums to the global count.
	nAll, err := Count(q, in, pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	n13, err := Count(q, in, pt, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	n02, err := Count(q, in, pt, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if n13+n02 != nAll {
		t.Fatalf("Count partition: %d + %d != %d", n13, n02, nAll)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestOwnedBuildKinds extends TestOwnedBuild's pin to every structure
// kind: two disjoint owned halves hold, shard for shard, exactly the
// parts of the full build (same totals, same local order), and half a
// build does not merge.
func TestOwnedBuildKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, in := pathQuery(t, rng, 400, 30)
	pt, err := Choose(q, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	trio, err := order.ParseLex(q, "x, z, y")
	if err != nil {
		t.Fatal(err)
	}
	w := order.IdentitySum(q.Head...)
	for _, k := range []Kind{
		{Lex: order.Lex{}},
		{Materialized: true, Lex: trio},
		{IsSum: true, Materialized: true, Sum: w},
	} {
		full, err := buildAll(q, in, k, pt)
		if err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		totals := full.PartTotals()
		for _, owned := range [][]int{{0, 2}, {1, 3}} {
			o, err := Build(context.Background(), q, in, k, pt, owned)
			if err != nil {
				t.Fatalf("%+v owned %v: %v", k, owned, err)
			}
			if _, err := Merge(o, nil); err == nil {
				t.Fatalf("%+v: merged %v of 4 shards", k, owned)
			}
			for _, s := range owned {
				if n, err := o.Total(s); err != nil || n != totals[s] {
					t.Fatalf("%+v shard %d: total %d (%v), want %d", k, s, n, err, totals[s])
				}
				for i := int64(0); i < totals[s]; i += 5 {
					a, _, err := o.AccessBatch([]int{s}, []int64{i}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if r, exact, err := full.Rank(a[0]); err != nil || !exact {
						t.Fatalf("%+v shard %d: full build does not hold %v (rank %d, %v)", k, s, a[0], r, err)
					}
					if r, exact, err := o.RankBatch(a, []int{s}); err != nil || !exact[0] || r[0] != i {
						t.Fatalf("%+v shard %d: Rank(Access(%d)) = (%v, %v, %v)", k, s, i, r, exact, err)
					}
				}
			}
		}
	}
}
