package shard

import (
	"context"
	"fmt"
	"sort"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/par"
	"rankedaccess/internal/selection"
)

// Kind names a structure — a lex or a SUM order, served by the
// tractable structure or by the materialize-and-sort fallback — and
// thereby also the total order every shard built with it shares (see
// Comparator). It is the one place the mapping from structure kind to
// builder and merge comparator lives.
type Kind struct {
	// IsSum selects the SUM order Sum; otherwise the lex order Lex.
	IsSum bool
	// Materialized selects the materialize-and-sort fallback of the
	// intractable side instead of the layered / SUM structure.
	Materialized bool
	Lex          order.Lex
	Sum          order.Sum
	// FDs refine the tractable builds of an unsharded structure (§8);
	// the fallback ignores them, and Build (the sharded one) wants them
	// extended away first.
	FDs fd.Set
}

// Build constructs the structure of this kind over one instance — the
// unsharded handle's, or one shard's — and reports the total lex order
// it realized (zero unless layered). Only layered builds are
// interruptible: they check ctx at every preprocessing wave boundary.
func (k Kind) Build(ctx context.Context, q *cq.Query, in *database.Instance) (access.Structure, order.Lex, error) {
	switch {
	case k.IsSum && k.Materialized:
		return access.BuildMaterializedSum(q, in, k.Sum), order.Lex{}, nil
	case k.Materialized:
		return access.BuildMaterializedLex(q, in, k.Lex), order.Lex{}, nil
	case k.IsSum:
		s, err := access.BuildSumFD(q, in, k.Sum, k.FDs)
		if err != nil {
			return nil, order.Lex{}, err
		}
		return s, order.Lex{}, nil
	}
	la, err := access.BuildLexFDCtx(ctx, q, in, k.Lex, k.FDs)
	if err != nil {
		return nil, order.Lex{}, err
	}
	return la, la.Completed, nil
}

// Comparator returns the total order every shard built with this kind
// sorts by, which is what a merge across shards (in one process or
// across nodes) must compare with: the completed order of layered
// builds, otherwise the requested order with ties broken by ascending
// head values — the functions the structures' own Compare is made of. A
// coordinator merges by it without holding any structure.
func (k Kind) Comparator(q *cq.Query, completed order.Lex) func(a, b order.Answer) int {
	switch {
	case k.IsSum:
		return func(a, b order.Answer) int { return access.CompareSumTotal(q, k.Sum, a, b) }
	case k.Materialized:
		return func(a, b order.Answer) int { return access.CompareLexTotal(q, k.Lex, a, b) }
	}
	return completed.Compare
}

// ownedShards validates and deduplicates the owned shard indices into
// ascending order; nil owns every shard of the partitioning.
func ownedShards(pt Partitioning, owned []int) ([]int, error) {
	if owned == nil {
		out := make([]int, pt.P)
		for s := range out {
			out[s] = s
		}
		return out, nil
	}
	if len(owned) == 0 {
		return nil, fmt.Errorf("shard: no owned shards requested")
	}
	set := make(map[int]bool, len(owned))
	for _, s := range owned {
		if s < 0 || s >= pt.P {
			return nil, fmt.Errorf("shard: owned shard %d outside [0, %d)", s, pt.P)
		}
		set[s] = true
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out, nil
}

// Build splits the instance per pt and builds one structure of the
// given kind per owned shard (nil = all of them) in parallel. All
// shards complete the requested order over the same query structure,
// so they realize the same total order; that is verified defensively
// and a mismatch is an error (a coordinator additionally verifies it
// ACROSS nodes from the Prepare responses). FD specs must be extended
// globally by the caller first (extend once, shard the extension, clear
// k.FDs): per-shard FD plumbing would price foreign candidates against
// incomplete local FD tables.
func Build(ctx context.Context, q *cq.Query, in *database.Instance, k Kind, pt Partitioning, owned []int) (*Owned, error) {
	shards, err := ownedShards(pt, owned)
	if err != nil {
		return nil, err
	}
	ins := Split(q, in, pt, shards...)
	o := &Owned{Query: q, Part: pt, kind: k, parts: make([]access.Structure, pt.P)}
	lexes := make([]order.Lex, len(shards))
	err = par.DoErr(len(shards), func(i int) error {
		var err error
		o.parts[shards[i]], lexes[i], err = k.Build(ctx, q, ins[shards[i]])
		return err
	})
	if err != nil {
		return nil, err
	}
	o.completed = lexes[0]
	for i, s := range shards {
		if !sameLex(lexes[0], lexes[i]) {
			return nil, fmt.Errorf("shard: internal: shard %d realized order %v, shard %d realized %v",
				s, lexes[i].Entries, shards[0], lexes[0].Entries)
		}
	}
	return o, nil
}

// Merge turns the result of a Build that owns every shard into the
// merging accessor; it takes Build's results directly so a full build
// is one expression. It prices the handle's splitter table in process
// (one AccessInto and P−1 Ranks per splitter, a few milliseconds).
func Merge(o *Owned, err error) (*Handle, error) {
	if err != nil {
		return nil, err
	}
	totals := make([]int64, len(o.parts))
	for s, p := range o.parts {
		if p == nil {
			return nil, fmt.Errorf("shard: cannot merge: shard %d of %d was not built", s, o.Part.P)
		}
		totals[s] = p.Total()
	}
	h := newHandle(o.Query, o.Part, totals, o.kind.Comparator(o.Query, o.completed))
	h.parts = o.parts
	h.Completed = o.completed
	// In-process pricing neither blocks nor reads its context.
	if err := h.fillSplitters(context.Background(), make([]int, len(totals))); err != nil {
		return nil, err
	}
	return h, nil
}

// BuildLex builds and merges the layered lexicographic structures of
// every shard.
func BuildLex(q *cq.Query, in *database.Instance, l order.Lex, pt Partitioning) (*Handle, error) {
	return Merge(Build(context.Background(), q, in, Kind{Lex: l}, pt, nil))
}

func sameLex(a, b order.Lex) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// Count answers the owned shards' share of |Q(I)| (nil = all shards,
// i.e. |Q(I)| itself) by splitting the instance and counting every
// owned shard in parallel; shard answer sets partition Q(I), so the
// counts sum. The per-shard counting is the same linear free-connex
// counting the single-shard path uses, and builds no structure.
func Count(q *cq.Query, in *database.Instance, pt Partitioning, owned []int) (int64, error) {
	shards, err := ownedShards(pt, owned)
	if err != nil {
		return 0, err
	}
	ins := Split(q, in, pt, shards...)
	counts := make([]int64, len(shards))
	err = par.DoErr(len(shards), func(i int) error {
		n, err := selection.CountAnswers(q, ins[shards[i]])
		counts[i] = n
		return err
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	return total, nil
}
