// Remote seam: the hooks that turn an Engine into either half of a
// distributed deployment.
//
// Coordinator side: Options.Remote installs a RemoteBuilder; every
// Prepare then delegates planning and structure building to it, and the
// returned handle merges network-served shard parts by rank
// (shard.NewRemote) — distributed answers are byte-identical to
// single-node answers by construction. Sharding happens only here: a
// local engine accepts a spec's shard fields and ignores them.
// The write path is disabled (ErrReadOnly): the coordinator owns no
// data, so mutations go to the nodes' own ingestion paths.
//
// Node side: BuildOwned runs the same ladder a local build runs (see
// ladder), asking shard.Build for only the shard subset the node owns.
//
// Both sides plan a spec through PlanDistributed, the one place a
// distributed spec is parsed, checked servable and partitioned.
package engine

import (
	"context"
	"errors"
	"fmt"

	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/values"
)

// ErrReadOnly reports a mutation against a coordinator engine, which
// owns no data of its own.
var ErrReadOnly = errors.New("engine: coordinator is read-only; mutate the shard nodes")

// RemoteBuilder plans and builds access structures somewhere other than
// this process — the coordinator's window onto its cluster. Both
// methods are called with the engine's locks NOT held; implementations
// synchronize internally.
type RemoteBuilder interface {
	// BuildRemote plans s and assembles a handle over remote shard
	// parts. It is called once per (spec, version) by the engine's
	// single-flight machinery; the implementation should still be safe
	// for concurrent calls with distinct specs.
	BuildRemote(ctx context.Context, s Spec) (*RemoteHandle, error)
	// CountRemote answers Count by scatter-gather. The cluster's own
	// shard count applies; by optionally names the partition variable.
	CountRemote(ctx context.Context, query, by string) (int64, CountInfo, error)
}

// RemoteHandle is what a RemoteBuilder returns: the pieces the engine
// wraps into an ordinary Handle, so every downstream consumer (batch
// access, ranges, cursors, NDJSON streaming) works unchanged.
type RemoteHandle struct {
	// Query is the parsed query (answers index its variables).
	Query *cq.Query
	// Plan records the planning outcome agreed with the nodes.
	Plan Plan
	// Sh merges the remote shard parts (see shard.NewRemote).
	Sh *shard.Handle
}

// buildRemote is build() for a coordinator engine: delegate to the
// RemoteBuilder and wrap its parts into a Handle.
func (e *Engine) buildRemote(ctx context.Context, s Spec) (*Handle, error) {
	rh, err := e.remote.BuildRemote(ctx, s)
	if err != nil {
		return nil, err
	}
	return &Handle{
		Query: rh.Query,
		Plan:  rh.Plan,
		spec:  s,
		rels:  queryRels(rh.Query),
		sh:    rh.Sh,
	}, nil
}

// selectRemote serves Select on a coordinator: with no local data there
// is no one-shot selection, so the prepared (cached) structure answers
// instead. The answer is identical; only the cost model differs.
func (e *Engine) selectRemote(s Spec, k int64) ([]values.Value, error) {
	h, err := e.Prepare(s)
	if err != nil {
		return nil, err
	}
	return h.AppendTuple(make([]values.Value, 0, h.Width()), k)
}

// DistPlan is a Spec planned for distributed serving: the coordinator
// plans before it scatters Prepare, and every node plans what a Prepare
// carries, through the same PlanDistributed.
type DistPlan struct {
	// Query is the parsed query.
	Query *cq.Query
	// Part is the cluster-wide partitioning every node must agree on.
	Part shard.Partitioning

	p *parsed
}

// PlanDistributed parses s as Prepare would, rejects what the
// distributed path cannot serve — FD specs (the extension is global,
// not per-shard) and unshardable queries (there is no single-structure
// fallback across nodes) — and fixes the partitioning: shards ways on
// the free variable by names. An empty by partitions a lex spec on the
// first variable of its order, so every group of answers sharing a
// leading value sits whole in one shard and the shards' answers
// interleave only where leading values change; SUM and order-less specs
// leave the pick to shard.Choose. Every error is the requester's fault.
func PlanDistributed(s Spec, shards int, by string) (*DistPlan, error) {
	p, err := parseSpec(s)
	if err != nil {
		return nil, err
	}
	if len(p.fds) > 0 {
		return nil, errors.New("engine: distributed serving does not support FD specs")
	}
	if by == "" && !p.sum && len(p.l.Entries) > 0 {
		by = p.q.VarName(p.l.Entries[0].Var)
	}
	pt, err := shard.Choose(p.q, by, shards)
	if err != nil {
		return nil, err
	}
	return &DistPlan{Query: p.q, Part: pt, p: p}, nil
}

// Verdict classifies the spec (the dichotomies are data-free, so a
// coordinator can report it without any node's help).
func (dp *DistPlan) Verdict() classify.Verdict {
	return dp.p.directAccess()
}

// Kind maps the structure mode the nodes' ladders landed on to the
// structure kind they built, whose comparator a coordinator merges by.
func (dp *DistPlan) Kind(mode Mode) (shard.Kind, error) {
	k := dp.p.kind()
	switch mode {
	case ModeMaterialized:
		k.Materialized = true
	case tractableMode(k.IsSum):
	default:
		return k, fmt.Errorf("engine: structure mode %q does not serve this spec's order", mode)
	}
	return k, nil
}

// NodeBuild is the node-side result of building the owned slice of a
// distributed spec.
type NodeBuild struct {
	// Owned holds the per-shard structures for the owned indices.
	Owned *shard.Owned
	// Mode is the structure mode every owned shard was built with.
	Mode Mode
	// Version is the instance version (epoch) the structures reflect.
	Version uint64
}

// BuildOwned builds the owned shards (nil = all) of a planned
// distributed spec against the node's current instance.
func (e *Engine) BuildOwned(ctx context.Context, dp *DistPlan, owned []int) (*NodeBuild, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	nb := &NodeBuild{Version: e.version}
	var plan Plan
	err := ladder(ctx, dp.p, &plan, func(k shard.Kind) (err error) {
		nb.Owned, err = shard.Build(ctx, dp.Query, e.in, k, dp.Part, owned)
		return err
	})
	if err != nil {
		return nil, err
	}
	nb.Mode = plan.Mode
	return nb, nil
}

// CountOwned counts the owned shards' contribution to a distributed
// count against the node's current instance.
func (e *Engine) CountOwned(dp *DistPlan, owned []int) (int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return shard.Count(dp.Query, e.in, dp.Part, owned)
}
