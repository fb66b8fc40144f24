package shard

import (
	"context"
	"fmt"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
)

// Owned holds the per-shard structures Build made for the shard
// indices one process owns. A complete set merges into a Handle (see
// Merge); a partial set is the node-side half of the distributed
// handle whose coordinator-side half is NewRemote. All probes address
// shards by their global index; asking for a shard the node does not
// own is an error, never a silent wrong answer.
type Owned struct {
	// Query is the parsed query the parts serve.
	Query *cq.Query
	// Part is the cluster-wide partitioning (P is the global shard
	// count, not the owned count).
	Part Partitioning

	kind      Kind
	completed order.Lex
	parts     []part // indexed by shard; nil where not owned
}

// Completed returns the realized total lex order of layered builds
// (zero for SUM and materialized-SUM).
func (o *Owned) Completed() order.Lex { return o.completed }

// Shards returns the owned shard indices in ascending order.
func (o *Owned) Shards() []int {
	var out []int
	for s, p := range o.parts {
		if p != nil {
			out = append(out, s)
		}
	}
	return out
}

func (o *Owned) part(shard int) (part, error) {
	if shard < 0 || shard >= len(o.parts) || o.parts[shard] == nil {
		return nil, fmt.Errorf("shard: shard %d is not owned by this node", shard)
	}
	return o.parts[shard], nil
}

// Total returns one owned shard's answer count.
func (o *Owned) Total(shard int) (int64, error) {
	p, err := o.part(shard)
	if err != nil {
		return 0, err
	}
	return p.total(), nil
}

// Rank returns one owned shard's count of answers strictly below a.
func (o *Owned) Rank(shard int, a order.Answer) (int64, bool, error) {
	p, err := o.part(shard)
	if err != nil {
		return 0, false, err
	}
	return p.rank(context.Background(), a)
}

// RankAll prices a on the given owned shards, filling ranks (aligned
// with shards) and reporting whether any of them holds a exactly.
func (o *Owned) RankAll(a order.Answer, shards []int, ranks []int64) (bool, error) {
	if len(ranks) != len(shards) {
		return false, fmt.Errorf("shard: %d rank slots for %d shards", len(ranks), len(shards))
	}
	exact := false
	for i, s := range shards {
		r, ex, err := o.Rank(s, a)
		if err != nil {
			return false, err
		}
		ranks[i] = r
		exact = exact || ex
	}
	return exact, nil
}

// Access returns one owned shard's k-th local answer. The answer is
// freshly allocated (wire-safe — it aliases no probe buffer).
func (o *Owned) Access(shard int, k int64) (order.Answer, error) {
	p, err := o.part(shard)
	if err != nil {
		return nil, err
	}
	a, err := p.access(context.Background(), k, p.newBuf())
	if err != nil {
		return nil, err
	}
	return append(order.Answer(nil), a...), nil
}

// maxOwnedRange caps one Range call, bounding the response frame a
// single request can demand from a node.
const maxOwnedRange = 4096

// Range returns one owned shard's local answers k0 ≤ k < k1, each
// freshly allocated off one backing array.
func (o *Owned) Range(shard int, k0, k1 int64) ([]order.Answer, error) {
	p, err := o.part(shard)
	if err != nil {
		return nil, err
	}
	if k0 < 0 || k1 < k0 || k1 > p.total() {
		return nil, access.ErrOutOfBound
	}
	n := k1 - k0
	if n > maxOwnedRange {
		return nil, fmt.Errorf("shard: range of %d answers exceeds the per-call cap %d", n, maxOwnedRange)
	}
	buf := p.newBuf()
	width := o.Query.NumVars()
	flat := make([]int64, 0, int(n)*width)
	out := make([]order.Answer, 0, n)
	for k := k0; k < k1; k++ {
		a, err := p.access(context.Background(), k, buf)
		if err != nil {
			return nil, err
		}
		start := len(flat)
		flat = append(flat, a...)
		out = append(out, flat[start:len(flat):len(flat)])
	}
	return out, nil
}
