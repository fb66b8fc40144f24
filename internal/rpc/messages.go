package rpc

import (
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// Spec is the wire form of a distributed ranked-access request: the
// textual spec the coordinator planned plus the partitioning it fixed
// (total shard count, partition variable) and the shard indices the
// receiving node must build and own. Probes repeat the full Spec so
// every call is stateless — a node that evicted (or never saw) the
// build reconstructs it from the message alone instead of failing on
// a dangling token.
type Spec struct {
	// Query, Order, SumBy, FDs mirror engine.Spec.
	Query string
	Order string
	SumBy []string
	FDs   []string
	// P is the cluster-wide shard count.
	P int
	// ShardVar names the partition variable (always explicit on the
	// wire; the coordinator resolves defaulting before fan-out so all
	// nodes agree).
	ShardVar string
	// Owned lists the shard indices in [0, P) this node builds.
	Owned []int

	// key is the spec's encoding as it arrived, set by decodeSpec only
	// (decoding is strict, so the wire bytes ARE the canonical
	// encoding): a node looks up a probe's build without encoding the
	// spec again. A Spec built or changed in code must not carry one.
	key string
}

func (s *Spec) encode(e *enc) {
	e.str(s.Query)
	e.str(s.Order)
	e.strs(s.SumBy)
	e.strs(s.FDs)
	e.u32(uint32(s.P))
	e.str(s.ShardVar)
	e.ints(s.Owned)
}

func decodeSpec(d *dec) Spec {
	start := d.off
	s := Spec{
		Query:    d.str(),
		Order:    d.str(),
		SumBy:    d.strs(),
		FDs:      d.strs(),
		P:        int(d.u32()),
		ShardVar: d.str(),
		Owned:    d.ints(),
	}
	if !d.bad {
		s.key = string(d.b[start:d.off])
	}
	return s
}

// Key returns a canonical identity string for the spec, used by nodes
// to cache builds across stateless probes.
func (s *Spec) Key() string {
	if s.key != "" {
		return s.key
	}
	var e enc
	s.encode(&e)
	return string(e.b)
}

// PrepareInfo is a node's answer to Prepare: the identity of the data
// the build reflects plus everything the coordinator needs to merge
// this node's shards into the global order.
type PrepareInfo struct {
	// Version is the node's instance version the build reflects;
	// subsequent probes echo it and get ErrStaleVersion if the node
	// moved on.
	Version uint64
	// Mode is the structure mode every owned shard was built in
	// (engine.Mode's string form); the coordinator requires unanimity
	// across nodes.
	Mode string
	// Completed is the realized total lex order of layered builds
	// (empty for SUM and materialized-SUM), encoded as (var, dir)
	// pairs. All shards of all nodes must realize the same order.
	Completed []order.LexEntry
	// Totals are the per-shard answer counts, aligned with the
	// request's Owned slice.
	Totals []int64
	// Groups, aligned with Totals, are the owned shards' answers
	// grouped by the order's leading value (shard.Groups), sent only by
	// layered builds partitioned on that variable, and only while they
	// hold at most maxGroups (value, start) pairs in all; nil otherwise,
	// and the coordinator then prices its splitter table instead.
	Groups []Groups
}

// Groups is one shard's answers grouped by the order's leading value,
// the wire form of shard.Groups: the answers whose leading value is
// Vals[i] are the shard's local indices [Starts[i], Starts[i+1]), the
// last group ending at the shard's total.
type Groups struct {
	Vals   []values.Value
	Starts []int64
}

// maxGroups bounds the (value, start) pairs of one Prepare reply's
// group lists: at 16 bytes each, a quarter of the frame cap.
const maxGroups = maxFrame / 4 / 16

func (p *PrepareInfo) encode(e *enc) {
	e.u64(p.Version)
	e.str(p.Mode)
	e.u32(uint32(len(p.Completed)))
	for _, le := range p.Completed {
		e.i64(int64(le.Var))
		e.u8(uint8(le.Dir))
	}
	e.i64s(p.Totals)
	e.groups(p.Groups, maxGroups)
}

func decodePrepareInfo(d *dec) *PrepareInfo {
	p := &PrepareInfo{Version: d.u64(), Mode: d.str()}
	n := d.count(9)
	for i := 0; i < n && !d.bad; i++ {
		v := d.i64()
		dir := d.u8()
		p.Completed = append(p.Completed, order.LexEntry{Var: cq.VarID(v), Dir: order.Direction(dir)})
	}
	p.Totals = d.i64s()
	p.Groups = d.groups(len(p.Totals), maxGroups)
	return p
}

// groups writes group lists: their count, then per list its length and
// its (value, start) pairs. Lists holding more than budget pairs in all
// are written as none — a count of 0 — which is how a node whose groups
// would overrun the frame says it sends none.
func (e *enc) groups(gs []Groups, budget int) {
	pairs := 0
	for _, g := range gs {
		pairs += len(g.Vals)
	}
	if pairs > budget {
		gs = nil
	}
	e.u32(uint32(len(gs)))
	for _, g := range gs {
		e.u32(uint32(len(g.Vals)))
		for i, v := range g.Vals {
			e.i64(int64(v))
			e.i64(g.Starts[i])
		}
	}
}

// groups reads what enc.groups wrote: no lists, or exactly lists of
// them, with at most budget pairs in all.
func (d *dec) groups(lists, budget int) []Groups {
	n := d.count(4)
	if d.bad || n == 0 {
		return nil
	}
	if n != lists {
		d.fail()
		return nil
	}
	out, pairs := make([]Groups, n), 0
	for i := range out {
		m := d.count(16)
		if pairs += m; d.bad || pairs > budget {
			d.fail()
			return nil
		}
		if m == 0 {
			continue
		}
		out[i] = Groups{Vals: make([]values.Value, m), Starts: make([]int64, m)}
		for k := range m {
			out[i].Vals[k], out[i].Starts[k] = values.Value(d.i64()), d.i64()
		}
	}
	return out
}

// CountSpec asks a node to count its owned shards' answers for a
// query under the given partitioning (no order needed — counting is
// order-free).
type CountSpec struct {
	Query    string
	P        int
	ShardVar string
	Owned    []int
}

func (c *CountSpec) encode(e *enc) {
	e.str(c.Query)
	e.u32(uint32(c.P))
	e.str(c.ShardVar)
	e.ints(c.Owned)
}

func decodeCountSpec(d *dec) CountSpec {
	return CountSpec{Query: d.str(), P: int(d.u32()), ShardVar: d.str(), Owned: d.ints()}
}

// PeerStats is a node's Stats answer.
type PeerStats struct {
	// Version is the node's current instance version.
	Version uint64
	// Tuples is the node's instance size.
	Tuples int64
	// Builds is the number of owned-shard builds the node is caching.
	Builds int64
}

// HealthInfo is a node's Health answer.
type HealthInfo struct {
	Ready   bool
	Reasons []string
}

// AccessBatchReq asks a node for the local answers at (Shards[i],
// Pos[i]) — the pivots one rank round takes from its owned shards —
// priced on every owned shard when Priced is set (see
// decodeAccessBatchResp). A search's final fetch is unpriced: the
// coordinator already knows every shard's count below its answer.
type AccessBatchReq struct {
	Spec    Spec
	Version uint64
	Priced  bool
	Shards  []int
	Pos     []int64
}

func (r *AccessBatchReq) encode(e *enc) {
	r.Spec.encode(e)
	e.u64(r.Version)
	e.bool(r.Priced)
	e.u32(uint32(len(r.Pos)))
	for i, k := range r.Pos {
		e.u32(uint32(r.Shards[i]))
		e.i64(k)
	}
}

func decodeAccessBatchReq(d *dec) AccessBatchReq {
	r := AccessBatchReq{Spec: decodeSpec(d), Version: d.u64(), Priced: d.u8() != 0}
	n := d.count(12)
	if n > MaxPivots {
		d.fail()
	}
	if d.bad || n == 0 {
		return r
	}
	r.Shards, r.Pos = make([]int, n), make([]int64, n)
	for i := range r.Pos {
		r.Shards[i], r.Pos[i] = int(d.u32()), d.i64()
	}
	return r
}

// decodeAccessBatchResp reads a node's answer to an AccessBatchReq of n
// positions priced on owned shards: the answers block in request order,
// then, when owned > 0, an i64s block whose ranks[i*owned+j] is the
// count of answers strictly below answers[i] on the spec's j-th owned
// shard. An unpriced request (owned = 0) is answered with the answers
// block alone. A count that disagrees with n, or with n·owned, is
// malformed.
func decodeAccessBatchResp(d *dec, n, owned int) (answers []order.Answer, ranks []int64) {
	answers = answersOf(d.rows(nil, MaxPivots))
	if owned > 0 {
		ranks = d.i64s()
	}
	if len(answers) != n || len(ranks) != n*owned {
		d.fail()
	}
	return answers, ranks
}

// decodeRangeResp appends a node's answer to a KindRange request for n
// answers — the answers block — to rows and returns them with the
// block's width. A block of another length is malformed.
func decodeRangeResp(d *dec, rows []int64, n int64) ([]int64, int) {
	rows, width, count := d.rows(rows, maxFrame/8)
	if int64(count) != n {
		d.fail()
	}
	return rows, width
}

// RankBatchReq asks a node to price every answer on every owned shard.
type RankBatchReq struct {
	Spec    Spec
	Version uint64
	Answers []order.Answer
}

func (r *RankBatchReq) encode(e *enc) {
	r.Spec.encode(e)
	e.u64(r.Version)
	e.answers(r.Answers)
}

func decodeRankBatchReq(d *dec) RankBatchReq {
	return RankBatchReq{Spec: decodeSpec(d), Version: d.u64(), Answers: answersOf(d.rows(nil, MaxPivots))}
}

// RankBatchResp is a node's answer to RankBatchReq: Ranks[i*owned+j]
// is the count of answers strictly below the request's i-th answer on
// the spec's j-th owned shard, Exact[i] whether one of them holds it.
type RankBatchResp struct {
	Ranks []int64
	Exact []bool
}

func (r *RankBatchResp) encode(e *enc) {
	e.u32(uint32(len(r.Exact)))
	e.i64s(r.Ranks)
	for _, ex := range r.Exact {
		e.bool(ex)
	}
}

func decodeRankBatchResp(d *dec) RankBatchResp {
	n := d.count(1)
	if n > MaxPivots {
		d.fail()
	}
	r := RankBatchResp{Ranks: d.i64s()}
	if d.bad || n == 0 {
		return r
	}
	r.Exact = make([]bool, n)
	for i := range r.Exact {
		r.Exact[i] = d.u8() != 0
	}
	return r
}
