// Package rankedaccess is a Go implementation of
//
//	Carmeli, Tziavelis, Gatterbauer, Kimelfeld, Riedewald:
//	"Tractable Orders for Direct Access to Ranked Answers of
//	Conjunctive Queries" (PODS 2021; extended version arXiv:2012.11965).
//
// It provides, for conjunctive queries over in-memory relations:
//
//   - ranked direct access by lexicographic orders: after O(n log n)
//     preprocessing, the k-th answer in order in O(log n), plus inverted
//     and next-answer access (Theorems 3.3/4.1, Algorithms 1 and 2);
//   - ranked direct access by sum-of-weights orders where possible
//     (Theorem 5.1);
//   - the selection problem (a single ranked access) in O(n) for
//     lexicographic orders of free-connex CQs (Theorem 6.1) and in
//     O(n log n) for SUM orders with fmh ≤ 2 (Theorem 7.3);
//   - complete decidable classification of all of the above, with
//     hardness certificates (disruptive trios, free/L-paths, α_free,
//     chordless 4-paths), including the refinements under unary
//     functional dependencies (§8);
//   - ranked enumeration by SUM for every free-connex CQ and
//     uniformly-random-order enumeration, for contrast and convenience.
//
// The entry points are ParseQuery / ParseLex / ParseFDs for inputs,
// Classify for the dichotomies, NewDirectAccess / NewDirectAccessSum for
// access structures, and Select / SelectBySum for one-shot selection.
//
// For serving repeated queries, NewEngine returns a concurrency-safe
// Engine that plans each request through the classification (layered
// lexicographic structure, SUM structure, or materialized fallback),
// caches built structures in an LRU keyed by (query, order, FDs),
// shares one build among concurrent requests for the same key, and
// absorbs instance mutations through an MVCC write path: writes go
// through a WAL and publish new immutable versioned epochs, and a stale
// structure catches up by republishing unchanged (untouched relations),
// merging a small sorted delta overlay, or — past a threshold, in the
// background — re-preprocessing. Engine.Prepare yields
// a Handle safe for unbounded concurrent Access/Total/Inverted probes;
// Engine.Access answers a batch of indices in one call. Preprocessing
// fans out across bounded worker goroutines (see internal/par).
//
// For prepared-statement-style serving, Engine.Register names a spec
// once and returns a PreparedQuery probed by name with zero
// re-parsing (re-prepared automatically when the instance mutates),
// and Cursor streams ranked windows via Seek/Next/NextN or a
// range-over-func All iterator. cmd/serve exposes all of it over
// HTTP/JSON as the versioned /v1 prepared-query API; package client is
// the matching Go SDK.
package rankedaccess

import (
	"errors"

	"rankedaccess/internal/access"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/decompose"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/enum"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/selection"
	"rankedaccess/internal/ucq"
	"rankedaccess/internal/values"
)

// Core re-exported types. Answers are value slices indexed by variable
// id; use AnswerTuple to project one onto the query head.
type (
	// Query is a conjunctive query (see ParseQuery).
	Query = cq.Query
	// VarID identifies a variable within a Query.
	VarID = cq.VarID
	// Value is a dictionary-encoded domain value.
	Value = values.Value
	// Instance is a database instance mapping relation names to relations.
	Instance = database.Instance
	// Relation is a bag of fixed-arity tuples.
	Relation = database.Relation
	// Answer assigns a Value to each free variable, indexed by VarID.
	Answer = order.Answer
	// LexOrder is a (possibly partial) lexicographic order with
	// per-variable direction.
	LexOrder = order.Lex
	// SumOrder assigns weight functions to variables; answers are ranked
	// by the sum of their values' weights.
	SumOrder = order.Sum
	// TupleSumOrder assigns weights to relation tuples instead of
	// attribute values (§2.2's alternative convention, for full
	// self-join-free CQs).
	TupleSumOrder = order.TupleSum
	// FDSet is a set of unary functional dependencies.
	FDSet = fd.Set
	// Verdict is a classification outcome with certificate.
	Verdict = classify.Verdict
	// DirectAccess is the lexicographic direct-access structure.
	DirectAccess = access.Lex
	// DirectAccessBuf is a reusable probe buffer for DirectAccess: pair
	// one with each goroutine (DirectAccess.NewBuf) and probe through
	// AccessInto / AppendTuple / AppendRange for zero-allocation
	// steady-state access.
	DirectAccessBuf = access.LexBuf
	// SumDirectAccess is the SUM direct-access structure.
	SumDirectAccess = access.Sum
	// SumEnumerator enumerates answers by non-decreasing weight.
	SumEnumerator = enum.SumEnumerator
)

// Errors surfaced by access and selection. All layers (access, engine,
// shard, serve, and the remote client in client/) wrap these sentinels,
// so errors.Is tests hold across the whole stack.
var (
	// ErrOutOfBound: the requested index is ≥ |Q(I)| or negative.
	ErrOutOfBound = access.ErrOutOfBound
	// ErrOutOfRange is ErrOutOfBound under its serving-API name: the
	// requested rank or range lies outside [0, |Q(I)|). The v1 HTTP API
	// maps it to 416 Requested Range Not Satisfiable.
	ErrOutOfRange = access.ErrOutOfBound
	// ErrNotAnAnswer: inverted access of a tuple that is not an answer.
	ErrNotAnAnswer = access.ErrNotAnAnswer
	// ErrNotPrepared: no prepared query registered under the requested
	// name (mapped to HTTP 404 by the v1 API).
	ErrNotPrepared = engine.ErrNotPrepared
	// ErrIntractable: the (query, order) pair is on the intractable
	// side of the paper's dichotomy. Every *access.IntractableError
	// unwraps to it (mapped to HTTP 422 by the v1 API's strict mode).
	ErrIntractable = access.ErrIntractable
)

// ParseQuery parses the textual form "Q(x, z) :- R(x, y), S(y, z)".
func ParseQuery(src string) (*Query, error) { return cq.Parse(src) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(src string) *Query { return cq.MustParse(src) }

// ParseLex parses a lexicographic order such as "x, z desc, y" over q's
// free variables. The empty string denotes the empty partial order (any
// tractable order; useful for random-order enumeration).
func ParseLex(q *Query, src string) (LexOrder, error) { return order.ParseLex(q, src) }

// ParseFDs parses unary functional dependencies, one per string, in the
// form "R: x -> y".
func ParseFDs(q *Query, srcs ...string) (FDSet, error) {
	var out FDSet
	for _, s := range srcs {
		fds, err := fd.Parse(q, s)
		if err != nil {
			return nil, err
		}
		out = append(out, fds...)
	}
	return out, nil
}

// NewInstance returns an empty database instance.
func NewInstance() *Instance { return database.NewInstance() }

// IdentitySum builds a SUM order weighing each given variable by its own
// value.
func IdentitySum(vars ...VarID) SumOrder { return order.IdentitySum(vars...) }

// TableSum builds a SUM order from explicit per-variable weight tables.
func TableSum(tables map[VarID]map[Value]float64) SumOrder { return order.TableSum(tables) }

// Problem selects one of the four classified problems.
type Problem int

const (
	// DirectAccessLex is ranked direct access by a lexicographic order.
	DirectAccessLex Problem = iota
	// SelectionLex is the selection problem under a lexicographic order.
	SelectionLex
	// DirectAccessSum is ranked direct access by a SUM order.
	DirectAccessSum
	// SelectionSum is the selection problem under a SUM order.
	SelectionSum
)

// Classify runs the paper's dichotomy for the given problem. The lex
// order is ignored for the SUM problems; fds may be nil.
func Classify(p Problem, q *Query, l LexOrder, fds FDSet) (v Verdict) {
	switch p {
	case DirectAccessLex:
		v, _ = classify.DirectAccessLex(q, l, fds)
	case SelectionLex:
		v, _ = classify.SelectionLex(q, l, fds)
	case DirectAccessSum:
		v, _ = classify.DirectAccessSum(q, fds)
	default:
		v, _ = classify.SelectionSum(q, fds)
	}
	return v
}

// NewDirectAccess builds the ⟨n log n, log n⟩ lexicographic direct-access
// structure; fds may be nil. It fails with *access.IntractableError
// (carrying the hardness certificate) on the intractable side.
func NewDirectAccess(q *Query, in *Instance, l LexOrder, fds FDSet) (*DirectAccess, error) {
	return access.BuildLexFD(q, in, l, fds)
}

// NewDirectAccessSum builds the ⟨n log n, 1⟩ SUM direct-access structure
// for the tractable class of Theorem 5.1; fds may be nil.
func NewDirectAccessSum(q *Query, in *Instance, w SumOrder, fds FDSet) (*SumDirectAccess, error) {
	return access.BuildSumFD(q, in, w, fds)
}

// Select answers the selection problem by a lexicographic order in O(n)
// (Theorem 6.1); fds may be nil.
func Select(q *Query, in *Instance, l LexOrder, k int64, fds FDSet) (Answer, error) {
	return selection.SelectLex(q, in, l, fds, k)
}

// SelectBySum answers the selection problem by a SUM order in O(n log n)
// (Theorem 7.3); fds may be nil.
func SelectBySum(q *Query, in *Instance, w SumOrder, k int64, fds FDSet) (Answer, error) {
	return selection.SelectSum(q, in, w, fds, k)
}

// Count returns |Q(I)| in linear time for free-connex CQs.
func Count(q *Query, in *Instance) (int64, error) {
	return selection.CountAnswers(q, in)
}

// NewSumEnumerator prepares ranked enumeration by SUM with logarithmic
// delay for any free-connex CQ (the any-k setting the paper contrasts
// direct access with).
func NewSumEnumerator(q *Query, in *Instance, w SumOrder) (*SumEnumerator, error) {
	return enum.NewSumEnumerator(q, in, w)
}

// NewTupleSumEnumerator prepares ranked enumeration ordered by the sum of
// per-tuple weights, for full self-join-free CQs (§2.2's tuple-weight
// convention).
func NewTupleSumEnumerator(q *Query, in *Instance, w TupleSumOrder) (*SumEnumerator, error) {
	return enum.NewTupleSumEnumerator(q, in, w)
}

// Decomposed is an acyclic rewrite of a (possibly cyclic) query over
// materialized bag relations (see MakeAcyclic).
type Decomposed = decompose.Result

// MakeAcyclic rewrites a cyclic query into an acyclic answer-equivalent
// one by materializing joins of at most maxGroup atoms per bag — the
// hypertree-decomposition route of the paper's "Applicability" note.
// Preprocessing may cost up to O(n^maxGroup); afterwards every access and
// selection algorithm applies to the rewrite. The rewrite shares variable
// ids with the input query.
func MakeAcyclic(q *Query, in *Instance, maxGroup int) (*Decomposed, error) {
	return decompose.MakeAcyclic(q, in, maxGroup)
}

// UnionAccess is a ranked direct-access structure over a union of CQs
// sharing a head (deduplicated), built from one structure per
// intersection with inclusion–exclusion ranks — the UCQ generalization
// of Carmeli et al. [15] that the paper's introduction recalls.
type UnionAccess = ucq.Union

// NewUnionAccess builds a union structure: every intersection of the
// member CQs must be on the tractable side of Theorem 4.1 for one shared
// completion of the requested order (resolved against the first query's
// variables). Access costs O(log² n); construction O(2^m · n log n) for
// m member CQs.
func NewUnionAccess(queries []*Query, in *Instance, l LexOrder) (*UnionAccess, error) {
	return ucq.BuildUnion(queries, in, l)
}

// Accessor is the one interface every direct-access structure answers
// by — the layered lexicographic structure, the SUM structure and the
// materializing fallback alike: count, access, rank and the realized
// total order.
type Accessor = access.Structure

// NewDirectAccessAny builds the best available access structure for the
// requested lexicographic order: the ⟨n log n, log n⟩ layered structure
// when (q, l, fds) is on the tractable side of the dichotomy, and the
// materialize-and-sort fallback (Θ(|Q(I)|) construction, O(1) access)
// otherwise — the paper proves nothing substantially better exists for
// those inputs. The returned flag reports which side was taken.
func NewDirectAccessAny(q *Query, in *Instance, l LexOrder, fds FDSet) (acc Accessor, tractable bool, err error) {
	da, err := NewDirectAccess(q, in, l, fds)
	if err == nil {
		return da, true, nil
	}
	var ie *access.IntractableError
	if !errors.As(err, &ie) {
		return nil, false, err // data/parse error, not a hardness verdict
	}
	return access.BuildMaterializedLex(q, in, l), false, nil
}

// Engine is the concurrency-safe planning/caching query engine: it
// classifies each request, builds the best structure (layered lex, SUM,
// or materialized fallback), caches it in an LRU keyed by (query, order,
// FD set, shard count, instance version), and invalidates on mutation.
type Engine = engine.Engine

// EngineOptions configures NewEngine.
type EngineOptions = engine.Options

// EngineSpec is a textual ranked-access request against an Engine.
// Setting Shards ≥ 2 partitions the instance on a free variable and
// serves global ranked access by merging per-shard answer counts; the
// answers are identical to unsharded execution (internal/shard).
type EngineSpec = engine.Spec

// EngineHandle is a prepared, immutable access structure; safe for
// concurrent use by any number of goroutines.
type EngineHandle = engine.Handle

// PreparedQuery is a named registration of an EngineSpec: parsed and
// built once by Engine.Register, probed many times by name with zero
// re-parsing, and transparently re-prepared when the instance mutates.
// Engine.Prepared resolves a name; Engine.ListPrepared and
// Engine.Evict manage the registry.
type PreparedQuery = engine.PreparedQuery

// PreparedID identifies one registration of a name (re-registration
// bumps Gen).
type PreparedID = engine.PreparedID

// PreparedInfo describes one registered query (Engine.ListPrepared).
type PreparedInfo = engine.PreparedInfo

// Cursor is a stateful scan over a prepared handle: Seek/Next/NextN in
// O(log n) each through the allocation-free access paths, plus a
// range-over-func All(k0, k1) iterator. Open one per goroutine via
// PreparedQuery.Cursor or EngineHandle.Cursor; either way the cursor is
// pinned to its handle's immutable epoch and streams its full result
// set unchanged across concurrent instance mutations.
type Cursor = engine.Cursor

// NewEngine returns an Engine over the given instance. The Engine owns
// the instance from here on: mutate it only through the write path
// (Engine.ApplyBatch, Engine.AddRows, Engine.DeleteRows, or
// Engine.Mutate) so writes are logged and cached structures advance to
// the new version.
func NewEngine(in *Instance, opts EngineOptions) *Engine { return engine.New(in, opts) }

// Mutation is one relational write — rows of one relation inserted or
// deleted — grouped atomically by Engine.ApplyBatch. Rows is flat with
// stride Arity.
type Mutation = delta.Mutation

// MutationOp is the kind of one Mutation.
type MutationOp = delta.Op

// Mutation op kinds.
const (
	OpInsert = delta.OpInsert
	OpDelete = delta.OpDelete
	OpReset  = delta.OpReset
)

// CheckpointInfo reports what Engine.Checkpoint persisted.
type CheckpointInfo = engine.CheckpointInfo

// RestoreInfo reports what OpenEngine or Engine.Restore loaded.
type RestoreInfo = engine.RestoreInfo

// OpenEngine warm-starts an Engine from the newest snapshot in dir (as
// written by Engine.Checkpoint): the instance, every persisted access
// structure (reconstructed zero-copy over the mapped file), and the
// prepared-query registry are restored without re-running
// preprocessing. warm is false when dir holds no snapshot and the
// engine is simply fresh. Call Engine.Close when the engine and all
// handles obtained from it are done, to release the file mappings.
func OpenEngine(dir string, opts EngineOptions) (e *Engine, warm bool, err error) {
	return engine.Open(dir, opts)
}

// AnswerTuple projects an answer onto the query head, in head order.
func AnswerTuple(q *Query, a Answer) []Value {
	return AppendAnswerTuple(q, make([]Value, 0, len(q.Head)), a)
}

// AppendAnswerTuple appends the head projection of a to dst and returns
// the extended slice; it allocates only when dst lacks capacity. This is
// the buffer-reuse variant of AnswerTuple for high-throughput loops.
func AppendAnswerTuple(q *Query, dst []Value, a Answer) []Value {
	for _, v := range q.Head {
		dst = append(dst, a[v])
	}
	return dst
}
