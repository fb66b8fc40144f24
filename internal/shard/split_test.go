package shard

import "testing"

// TestAccessSplitAllocs pins the router's cost of dividing one round's
// batched access among the nodes: five allocations whatever the round
// carries, sized by one counting pass.
func TestAccessSplitAllocs(t *testing.T) {
	r := &router{nodes: make([]Node, 2), owner: []int{0, 1, 0, 1}}
	shards, pos := make([]int, PivotsPerWindow*len(r.owner)), make([]int64, PivotsPerWindow*len(r.owner))
	for i := range shards {
		shards[i], pos[i] = i/PivotsPerWindow, int64(i)
	}
	batches, err := r.split(shards, pos)
	if err != nil || len(batches) != 2 {
		t.Fatalf("split = %d batches, %v", len(batches), err)
	}
	for i, b := range batches {
		if b.node != i || len(b.at) != len(shards)/2 || len(b.shards) != len(b.at) || len(b.pos) != len(b.at) {
			t.Fatalf("batch %d: %+v", i, b)
		}
		for j, at := range b.at {
			if r.owner[shards[at]] != i || b.shards[j] != shards[at] || b.pos[j] != pos[at] || (j > 0 && at <= b.at[j-1]) {
				t.Fatalf("batch %d entry %d: request index %d, shard %d, position %d", i, j, at, b.shards[j], b.pos[j])
			}
		}
	}
	if _, err := r.split([]int{len(r.owner)}, []int64{0}); err == nil {
		t.Fatal("split accepted a shard outside the partitioning")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.split(shards, pos); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("splitting %d positions over 2 nodes allocates %.0f times, ceiling 5", len(shards), allocs)
	}
}
