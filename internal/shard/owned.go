package shard

import (
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
	parts     []access.Structure // indexed by shard; nil where not owned
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

func (o *Owned) part(shard int) (access.Structure, error) {
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
	return p.Total(), nil
}

// RankBatch prices every answer on every given owned shard — the
// node-side half of a coordinator's rank round. ranks[i*len(shards)+j]
// is shard shards[j]'s count of answers strictly below answers[i];
// exact[i] reports whether one of the shards holds answers[i]. The
// answers arrive off the wire: a batch over MaxPivots or an answer that
// does not assign every query variable is an error, not a panic.
func (o *Owned) RankBatch(answers []order.Answer, shards []int) (ranks []int64, exact []bool, err error) {
	if len(answers) > MaxPivots {
		return nil, nil, fmt.Errorf("shard: rank batch of %d answers exceeds the per-call cap %d", len(answers), MaxPivots)
	}
	parts := make([]access.Structure, len(shards))
	for j, s := range shards {
		if parts[j], err = o.part(s); err != nil {
			return nil, nil, err
		}
	}
	ranks = make([]int64, len(answers)*len(parts))
	exact = make([]bool, len(answers))
	for i, a := range answers {
		if len(a) != o.Query.NumVars() {
			return nil, nil, fmt.Errorf("shard: answer %d has %d values, the query has %d variables", i, len(a), o.Query.NumVars())
		}
		for j, p := range parts {
			r, ex := p.Rank(a)
			ranks[i*len(parts)+j] = r
			exact[i] = exact[i] || ex
		}
	}
	return ranks, exact, nil
}

// answerBlock collects wire-safe copies of probed answers — they alias
// no probe buffer — off one backing array.
type answerBlock struct {
	flat []int64
	out  []order.Answer
}

// newAnswerBlock sizes a block for n answers, plus extra words of the
// backing array behind them that the answers never reach: once all n
// are added, flat[len(flat):cap(flat)] is the caller's.
func (o *Owned) newAnswerBlock(n, extra int) answerBlock {
	return answerBlock{flat: make([]int64, 0, n*o.Query.NumVars()+extra), out: make([]order.Answer, 0, n)}
}

func (b *answerBlock) add(a order.Answer) {
	start := len(b.flat)
	b.flat = append(b.flat, a...)
	b.out = append(b.out, b.flat[start:len(b.flat):len(b.flat)])
}

// AccessBatch returns, in request order, the answer at local index
// pos[i] of owned shard shards[i], each priced on the given owned
// shards — the node-side half of a rank round's fetch from its source
// node. ranks[i*len(owned)+j] is shard owned[j]'s count of answers
// strictly below answers[i]; on shards[i] itself that is pos[i], which
// is pinned rather than computed. A run of positions on one shard
// shares one probe buffer, borrowed from the shard's structure (an
// error path keeps it: garbage, not a leak); the ranks share the
// answers' backing array.
func (o *Owned) AccessBatch(shards []int, pos []int64, owned []int) (answers []order.Answer, ranks []int64, err error) {
	if len(shards) != len(pos) {
		return nil, nil, fmt.Errorf("shard: %d positions for %d shards", len(pos), len(shards))
	}
	if len(pos) > MaxPivots {
		return nil, nil, fmt.Errorf("shard: access batch of %d positions exceeds the per-call cap %d", len(pos), MaxPivots)
	}
	out := o.newAnswerBlock(len(pos), len(pos)*len(owned))
	var (
		p   access.Structure
		buf *access.LexBuf
	)
	for i, s := range shards {
		if i == 0 || s != shards[i-1] {
			if p != nil {
				p.PutBuf(buf)
			}
			if p, err = o.part(s); err != nil {
				return nil, nil, err
			}
			buf = p.GetBuf()
		}
		a, err := p.AccessInto(buf, pos[i])
		if err != nil {
			return nil, nil, err
		}
		out.add(a)
	}
	if p != nil {
		p.PutBuf(buf)
	}
	ranks = out.flat[len(out.flat):cap(out.flat)]
	for j, s := range owned {
		part, err := o.part(s)
		if err != nil {
			return nil, nil, err
		}
		for i, a := range out.out {
			if ranks[i*len(owned)+j] = pos[i]; s != shards[i] {
				ranks[i*len(owned)+j], _ = part.Rank(a)
			}
		}
	}
	return out.out, ranks, nil
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
	if k0 < 0 || k1 < k0 || k1 > p.Total() {
		return nil, access.ErrOutOfBound
	}
	n := k1 - k0
	if n > maxOwnedRange {
		return nil, fmt.Errorf("shard: range of %d answers exceeds the per-call cap %d", n, maxOwnedRange)
	}
	buf := p.GetBuf()
	out := o.newAnswerBlock(int(n), 0)
	for k := k0; k < k1; k++ {
		a, err := p.AccessInto(buf, k)
		if err != nil {
			return nil, err
		}
		out.add(a)
	}
	p.PutBuf(buf)
	return out.out, nil
}
