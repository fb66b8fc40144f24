// Package engine serves repeated ranked-access workloads over one
// mutable database instance.
//
// The paper's structures pay O(n log n) preprocessing per (query, order)
// pair and then answer each access in O(log n); a service answering many
// probes of the same pair must therefore build once and probe many
// times. The Engine does exactly that:
//
//   - it plans each request by running the paper's classification first
//     and picking the best structure — the layered lexicographic
//     structure (Theorem 4.1), the SUM structure (Theorem 5.1), or the
//     materialize-and-sort fallback on the intractable side
//     (generalizing the facade's NewDirectAccessAny);
//   - it caches built structures in an LRU keyed by (query text, order,
//     FD set, SUM variables, instance version), so repeated requests
//     skip preprocessing entirely;
//   - concurrent requests for the same missing key share one build
//     (single-flight), and all structures are immutable after
//     construction, so any number of goroutines may probe one cached
//     Handle;
//   - mutations are MVCC: every write appends a batch to a write-ahead
//     log (internal/delta) and bumps the version, but never purges the
//     cache. A later Prepare of a stale structure catches up by
//     replaying the logged batches — republishing the structure
//     unchanged when no batch touches its relations, merging the
//     answer-level delta in as a small sorted overlay
//     (internal/access.Overlay) when one does, and falling back to a
//     full rebuild only when the delta is opaque (Engine.Mutate), the
//     log tail no longer reaches back, or the overlay grew past the
//     hard limit. The delta's join probes per-column position indexes
//     the engine keeps over the live relations (colindex.go), so it
//     visits the rows that join with the written ones, not the whole
//     instance. Once an overlay crosses the soft threshold a
//     background re-preprocess rebuilds the structure and atomically
//     swaps it into the cache while readers keep probing the published
//     epoch. Handles and cursors always answer from the immutable epoch
//     they were acquired on, so writes never invalidate an in-progress
//     scan.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/api"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/faultfs"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/order"
	"rankedaccess/internal/reqid"
	"rankedaccess/internal/selection"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/trace"
	"rankedaccess/internal/values"
)

// ErrNoInverted reports that the planned structure cannot answer
// inverted access (the SUM structures have no inverse).
var ErrNoInverted = errors.New("engine: inverted access unsupported for this structure")

// ErrNotPrepared reports that no prepared query with the requested name
// is registered (see Engine.Register / Engine.Prepared).
var ErrNotPrepared = errors.New("engine: query not prepared")

// DefaultCacheSize bounds the accessor cache when Options.CacheSize is
// unset.
const DefaultCacheSize = 64

// DefaultDeltaSoft is the overlay edit count past which a background
// re-preprocess is scheduled (the overlay keeps serving meanwhile).
const DefaultDeltaSoft = 512

// DefaultDeltaHard is the overlay edit count past which a catch-up
// gives up on merging and rebuilds synchronously: beyond it the
// O(log d) overlay search and the delta evaluation stop being cheaper
// than preprocessing.
const DefaultDeltaHard = 4096

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the number of cached access structures;
	// DefaultCacheSize when <= 0.
	CacheSize int
	// DeltaSoft is the overlay size that triggers a background rebuild;
	// DefaultDeltaSoft when <= 0.
	DeltaSoft int
	// DeltaHard is the overlay size that forces a synchronous rebuild;
	// DefaultDeltaHard when <= 0.
	DeltaHard int
	// FS is the filesystem the durability layer (WAL, checkpoints) runs
	// on; faultfs.OS() when nil. Chaos tests substitute a
	// faultfs.Injector here.
	FS faultfs.FS
	// Logger, when non-nil, receives structured events from the
	// engine's slow paths — synchronous structure builds, background
	// rebuilds, WAL append failures. Build events carry the request id
	// of the triggering request (internal/reqid) when the context has
	// one, so operators can join an expensive build to the request that
	// paid for it. Nil disables engine logging; the hot probe paths
	// never log either way.
	Logger *slog.Logger
	// Remote, when non-nil, turns the engine into a distributed
	// coordinator: Prepare delegates planning and building to the
	// RemoteBuilder, Count scatters to the cluster, and the write path
	// returns ErrReadOnly (the coordinator owns no data). All caching,
	// single-flight, registry, and cursor machinery still applies —
	// remote handles are cached and shared like local ones.
	Remote RemoteBuilder
}

// Spec identifies a ranked-access request against the engine's
// instance: the /v1 wire type itself, so no layer copies it.
type Spec = api.Spec

// normShards canonicalizes a requested shard count: anything below 2 is
// unsharded, anything above the shard package's bound is clamped.
func normShards(p int) int {
	if p < 2 {
		return 1
	}
	if p > shard.MaxShards {
		return shard.MaxShards
	}
	return p
}

// Mode names the structure a plan selected.
type Mode string

const (
	// ModeLayeredLex is the ⟨n log n, log n⟩ layered structure.
	ModeLayeredLex Mode = "layered-lex"
	// ModeSum is the ⟨n log n, 1⟩ SUM structure.
	ModeSum Mode = "sum"
	// ModeMaterialized is the Θ(|Q(I)|) materialize-and-sort fallback
	// used on the intractable side of the dichotomies.
	ModeMaterialized Mode = "materialized"
)

// Plan records the planning outcome for a Spec.
type Plan struct {
	// Mode is the structure chosen.
	Mode Mode
	// Tractable reports the side of the paper's dichotomy the request
	// fell on.
	Tractable bool
	// Verdict is the classification with its certificate.
	Verdict classify.Verdict
	// Shards is the shard count actually used (0 when unsharded).
	Shards int
	// ShardBy is the partition variable actually used (empty when
	// unsharded).
	ShardBy string
	// ShardNote records why a sharding request fell back to a single
	// structure (empty when sharding succeeded or was not requested).
	ShardNote string
}

// Handle is a prepared, immutable, concurrency-safe access structure.
// Any number of goroutines may call its methods.
type Handle struct {
	// Query is the parsed query (answers index its variables).
	Query *cq.Query
	// Plan records how the request was served.
	Plan Plan

	// spec is the request this handle was built from; checkpoints
	// persist it so a warm start can re-key the structure.
	spec Spec

	// version is the instance version (WAL sequence) this handle's
	// answers reflect: the epoch it was built or caught up to.
	version uint64
	// rels is the set of relation symbols the query references; batches
	// touching none of them republish the handle unchanged.
	rels map[string]bool

	// st is the structure unsharded probes go through (nil on a sharded
	// handle): the built structure itself, or — when ov is non-nil —
	// ov, the merged view of that structure (ov.Base()) plus the
	// answer-level edits ovAdds/ovDels accumulated since it was built.
	// Immutable, like everything else on a Handle: a catch-up publishes
	// a new Handle with a new overlay.
	st     access.Structure
	ov     *access.Overlay
	ovAdds []order.Answer
	ovDels []order.Answer

	// Sharded serving: sh merges per-shard structures; shProject maps a
	// merged (possibly FD-extended) answer to the original query's
	// shape and shExtend maps a caller answer into the merged shape for
	// inverted access.
	sh        *shard.Handle
	shProject func(order.Answer) order.Answer
	shExtend  func(order.Answer) (order.Answer, bool)
}

// Version returns the instance version (epoch) the handle answers for.
func (h *Handle) Version() uint64 { return h.version }

// DeltaEdits returns the number of answer-level edits the handle's
// overlay carries (0 for a handle serving its base structure directly).
func (h *Handle) DeltaEdits() int {
	if h.ov == nil {
		return 0
	}
	return h.ov.Edits()
}

// Total returns |Q(I)| as of the handle's build.
func (h *Handle) Total() int64 {
	if h.sh != nil {
		return h.sh.Total()
	}
	return h.st.Total()
}

// Access returns the k-th answer in the handle's order.
func (h *Handle) Access(k int64) (order.Answer, error) {
	return h.AccessCtx(context.Background(), k)
}

// AccessCtx is Access with a caller context: on a coordinator handle
// the context rides the network scatter (trace propagation, deadline);
// in-process structures ignore it.
func (h *Handle) AccessCtx(ctx context.Context, k int64) (order.Answer, error) {
	if h.sh == nil {
		return h.st.Access(k)
	}
	a, err := h.sh.AccessCtx(ctx, k)
	if err != nil {
		return nil, err
	}
	if h.shProject != nil {
		a = h.shProject(a)
	}
	return a, nil
}

// Inverted returns the index of an answer, when the order has an
// inverse (lex orders do; the engine serves none for SUM orders).
func (h *Handle) Inverted(a order.Answer) (int64, error) {
	if len(h.spec.SumBy) > 0 {
		return 0, ErrNoInverted
	}
	if h.sh == nil {
		return access.Inverted(h.st, a)
	}
	if h.shExtend != nil {
		ext, ok := h.shExtend(a)
		if !ok {
			return 0, access.ErrNotAnAnswer
		}
		a = ext
	}
	return h.sh.Inverted(a)
}

// HeadTuple projects an answer onto the query head, in head order.
func (h *Handle) HeadTuple(a order.Answer) []values.Value {
	return h.AppendHeadTuple(make([]values.Value, 0, len(h.Query.Head)), a)
}

// AppendHeadTuple appends the head projection of a to dst and returns
// the extended slice, allocating only when dst lacks capacity.
func (h *Handle) AppendHeadTuple(dst []values.Value, a order.Answer) []values.Value {
	for _, v := range h.Query.Head {
		dst = append(dst, a[v])
	}
	return dst
}

// Width returns the number of head columns of each answer tuple.
func (h *Handle) Width() int { return len(h.Query.Head) }

// AppendTuple appends the head tuple of the k-th answer to dst and
// returns the extended slice. This is the zero-allocation access path
// (probe scratch comes from a pool, output goes into dst), with or
// without an overlay: one dynamic call, whatever the structure.
func (h *Handle) AppendTuple(dst []values.Value, k int64) ([]values.Value, error) {
	return h.AppendTupleCtx(context.Background(), dst, k)
}

// AppendTupleCtx is AppendTuple with a caller context (see AccessCtx).
func (h *Handle) AppendTupleCtx(ctx context.Context, dst []values.Value, k int64) ([]values.Value, error) {
	if h.sh != nil {
		return h.sh.AppendTupleCtx(ctx, dst, h.Query.Head, k)
	}
	return h.st.AppendTuple(dst, k)
}

// AccessRange appends the head tuples of answers k0 ≤ k < k1 to dst
// (Width values each, concatenated) and returns the extended slice. The
// per-call planning and buffer overhead is paid once for the whole
// range, so batched scans of a built structure run allocation-free
// modulo dst growth.
func (h *Handle) AccessRange(dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	return h.AccessRangeCtx(context.Background(), dst, k0, k1)
}

// AccessRangeCtx is AccessRange with a caller context (see AccessCtx).
func (h *Handle) AccessRangeCtx(ctx context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if k0 < 0 || k1 < k0 {
		return dst, fmt.Errorf("engine: bad access range [%d, %d)", k0, k1)
	}
	if h.sh != nil {
		return h.sh.AppendRangeCtx(ctx, dst, h.Query.Head, k0, k1)
	}
	return h.st.AppendRange(dst, k0, k1)
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// Hits and Misses count cache lookups by Prepare.
	Hits, Misses uint64
	// Entries is the current number of cached structures.
	Entries int
	// Version is the instance version (bumped by every mutation).
	Version uint64
	// Tuples is the instance size n.
	Tuples int
	// Prepared is the number of registered named queries.
	Prepared int
	// RegistryHits counts by-name probes served from a registered
	// query's current handle with zero spec re-parsing (not even a
	// cache-key construction).
	RegistryHits uint64
	// Reprepares counts automatic rebuilds of registered queries after
	// an instance-version change.
	Reprepares uint64
	// Checkpoints and Restores count snapshot writes and loads over the
	// engine's lifetime.
	Checkpoints, Restores uint64
	// WarmStructures is the number of access structures rehydrated from
	// the snapshot by the most recent Open/Restore (0 for a cold
	// engine).
	WarmStructures uint64
	// WALBatches counts mutation batches applied through the write path.
	WALBatches uint64
	// DeltaSkips counts stale structures republished unchanged because
	// no logged batch touched their relations.
	DeltaSkips uint64
	// DeltaEpochs counts overlay epochs published: stale structures that
	// absorbed writes by merging the answer-level delta instead of
	// rebuilding.
	DeltaEpochs uint64
	// DeltaRebuilds counts stale structures that had to rebuild
	// synchronously (opaque reset, truncated log tail, ineligible
	// structure, or an overlay past the hard limit).
	DeltaRebuilds uint64
	// BGRebuilds counts background re-preprocesses that completed and
	// swapped a fresh structure into the cache.
	BGRebuilds uint64
	// WALErrors counts durable-WAL append failures that were absorbed
	// rather than returned (Mutate's reset marker, whose replay is a
	// no-op anyway). Nonzero means the disk under the WAL is unhealthy.
	WALErrors uint64
}

// flight is one in-progress build, shared by concurrent requesters.
type flight struct {
	done chan struct{}
	h    *Handle
	err  error
}

// Engine is a concurrency-safe planner/cache over one database instance.
type Engine struct {
	// mu guards the instance and version: builds and one-shot reads hold
	// it shared for their full duration, mutations hold it exclusively,
	// so a mutation never interleaves with a build.
	mu      sync.RWMutex
	in      *database.Instance
	version uint64

	// idx holds the column indexes catch-ups probe over in's relations
	// (colindex.go); it is replaced together with in.
	idx *relIndexes

	// vnow mirrors version for lock-free staleness checks by registered
	// queries and cursors; it is written only under mu exclusive.
	vnow atomic.Uint64

	// snapDir is the snapshot directory a WAL-attached engine was opened
	// from; a live Restore checkpoints into it so the restored lineage
	// is durable before the pre-restore WAL frames are discarded.
	snapDir string

	// wlog is the in-memory WAL tail stale structures catch up from;
	// wal, when non-nil (snapshot-dir engines), is the durable on-disk
	// log. Both are appended under mu exclusive.
	wlog *delta.Log
	wal  *delta.WAL

	// deltaSoft/deltaHard are the overlay thresholds (see Options).
	deltaSoft, deltaHard int

	// fs is the filesystem under the WAL and checkpoint files (see
	// Options.FS).
	fs faultfs.FS

	// cmu guards the cache, the in-flight build table, and the
	// background-rebuild dedup set.
	cmu          sync.Mutex
	cache        *lru
	flights      map[string]*flight
	bgRebuilding map[string]bool

	// bg tracks background re-preprocess goroutines (Quiesce waits).
	bg sync.WaitGroup

	// life is the engine's lifetime context: background rebuilds build
	// under it, so Close abandons them at the next wave boundary instead
	// of waiting out a full O(n log n) preprocess.
	life context.Context
	stop context.CancelFunc

	// log receives slow-path events (see Options.Logger); nil means
	// logging is off.
	log *slog.Logger

	// remote, when non-nil, makes this a coordinator engine (see
	// Options.Remote).
	remote RemoteBuilder

	// rmu guards the named-query registry. regGen is the last
	// registration's generation; regChanges counts every change to the
	// registry — registrations, evictions, a restore's replacement — so a
	// checkpoint can tell that the registry moved (see Unsaved).
	rmu        sync.Mutex
	registry   map[string]*PreparedQuery
	regGen     uint64
	regChanges uint64

	hits, misses        atomic.Uint64
	regHits, reprepares atomic.Uint64

	walBatches, deltaSkips, deltaEpochs atomic.Uint64
	deltaRebuilds, bgRebuilds           atomic.Uint64
	walErrors                           atomic.Uint64

	// catchupSeconds, once RegisterMetrics attached it, observes every
	// catch-up that publishes an overlay epoch; buildSeconds every
	// structure build that succeeds, synchronous or in the background.
	catchupSeconds, buildSeconds atomic.Pointer[metrics.Histogram]

	// Snapshot state: counters, the open file mappings warm structures
	// alias (released by Close, never before), and what the newest
	// checkpoint in snapDir holds (nil: none known).
	checkpoints, restores, warmStructures atomic.Uint64
	smu                                   sync.Mutex
	mappings                              []io.Closer
	saved                                 *savedMark
}

// New returns an Engine over the given instance. The Engine owns the
// instance from here on: mutate it only through the write path
// (ApplyBatch/AddRows/DeleteRows/Mutate).
func New(in *database.Instance, opts Options) *Engine {
	if in == nil {
		in = database.NewInstance()
	}
	size := opts.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	soft := opts.DeltaSoft
	if soft <= 0 {
		soft = DefaultDeltaSoft
	}
	hard := opts.DeltaHard
	if hard <= 0 {
		hard = DefaultDeltaHard
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	life, stop := context.WithCancel(context.Background())
	return &Engine{
		in:           in,
		idx:          newRelIndexes(in),
		wlog:         delta.NewLog(0),
		deltaSoft:    soft,
		deltaHard:    hard,
		fs:           fsys,
		life:         life,
		stop:         stop,
		log:          opts.Logger,
		remote:       opts.Remote,
		cache:        newLRU(size),
		flights:      make(map[string]*flight),
		bgRebuilding: make(map[string]bool),
		registry:     make(map[string]*PreparedQuery),
	}
}

// RegisterMetrics attaches the engine's own series to reg: the
// latency histogram of catch-ups that publish an overlay epoch, whose
// buckets start at 10 µs (an indexed one-row catch-up takes tens), and
// that of structure builds.
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	e.catchupSeconds.Store(reg.Histogram("ra_engine_catchup_seconds",
		"catch-ups that published an overlay epoch: the delta join, the edit merge and the overlay build",
		append([]float64{0.00001, 0.000025, 0.00005}, metrics.DefBuckets...)))
	e.buildSeconds.Store(reg.Histogram("ra_engine_build_seconds",
		"structure builds that succeeded: cache misses, stale handles no overlay could catch up, and background rebuilds",
		nil))
}

// versionNow reads the instance version without locking; registered
// queries use it for staleness checks on their hot paths.
func (e *Engine) versionNow() uint64 { return e.vnow.Load() }

// ApplyBatch atomically applies one batch of relational mutations: the
// batch is validated in full, appended to the durable WAL (when one is
// attached) and the in-memory log, applied to the instance, and
// published as the new instance version, which it returns. Cached
// structures are NOT purged: the next request for one catches up from
// the log — see the package comment.
func (e *Engine) ApplyBatch(muts []delta.Mutation) (uint64, error) {
	return e.ApplyBatchCtx(context.Background(), muts)
}

// ApplyBatchCtx is ApplyBatch with a caller context, used only for
// trace attribution: the WAL append and in-memory apply are recorded
// as span events on the request's span when one is active.
func (e *Engine) ApplyBatchCtx(ctx context.Context, muts []delta.Mutation) (uint64, error) {
	if e.remote != nil {
		return 0, ErrReadOnly
	}
	for i := range muts {
		if err := muts[i].Validate(); err != nil {
			return 0, fmt.Errorf("engine: %w", err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := validateArity(e.in, muts); err != nil {
		return 0, err
	}
	b := delta.Batch{Seq: e.version + 1, Muts: muts}
	if e.wal != nil {
		walStart := time.Now()
		if err := e.wal.Append(b); err != nil {
			if e.log != nil {
				e.log.LogAttrs(context.Background(), slog.LevelError, "engine: wal append failed",
					slog.Uint64("seq", b.Seq), slog.String("error", err.Error()))
			}
			return 0, fmt.Errorf("engine: %w", err)
		}
		trace.FromContext(ctx).AddEvent("wal.append",
			trace.Int("seq", int64(b.Seq)),
			trace.Int("mutations", int64(len(muts))),
			trace.Int("duration_us", time.Since(walStart).Microseconds()))
	}
	e.idx.applyMuts(muts)
	e.wlog.Append(b)
	e.version = b.Seq
	e.vnow.Store(b.Seq)
	e.walBatches.Add(1)
	return b.Seq, nil
}

// validateArity checks every mutation's arity against the instance AND
// against earlier mutations in the same batch, so a batch that creates
// a relation cannot disagree with itself about its arity. This must
// catch everything applyMuts would choke on BEFORE the batch reaches
// the durable WAL: a poisoned frame would otherwise fail again on every
// replay, turning one bad request into a crash loop across restarts.
func validateArity(in *database.Instance, muts []delta.Mutation) error {
	var created map[string]int
	for i := range muts {
		m := &muts[i]
		if m.Op == delta.OpReset {
			continue
		}
		if r := in.Relation(m.Rel); r != nil {
			if r.Arity() != m.Arity {
				return fmt.Errorf("engine: relation %s has arity %d, %s has %d", m.Rel, r.Arity(), m.Op, m.Arity)
			}
			continue
		}
		if a, ok := created[m.Rel]; ok {
			if a != m.Arity {
				return fmt.Errorf("engine: relation %s has arity %d earlier in the batch, %s has %d", m.Rel, a, m.Op, m.Arity)
			}
			continue
		}
		if created == nil {
			created = make(map[string]int)
		}
		created[m.Rel] = m.Arity
	}
	return nil
}

// AddRows appends rows to the named relation (creating it on first
// use) through the write path. The rows are validated against the
// relation's arity (or each other, for a new relation) before anything
// is appended, so a bad batch leaves the instance untouched.
func (e *Engine) AddRows(rel string, rows [][]values.Value) error {
	m, err := rowsMutation(delta.OpInsert, rel, rows)
	if err != nil || m == nil {
		return err
	}
	_, err = e.ApplyBatch([]delta.Mutation{*m})
	return err
}

// DeleteRows removes every occurrence of each given row from the named
// relation through the write path. Rows absent from the relation are
// ignored (deletion is idempotent, which also makes WAL replay safe).
func (e *Engine) DeleteRows(rel string, rows [][]values.Value) error {
	m, err := rowsMutation(delta.OpDelete, rel, rows)
	if err != nil || m == nil {
		return err
	}
	_, err = e.ApplyBatch([]delta.Mutation{*m})
	return err
}

// rowsMutation flattens row slices into one mutation record, checking
// the rows agree on one arity (nil for an empty batch).
func rowsMutation(op delta.Op, rel string, rows [][]values.Value) (*delta.Mutation, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	arity := len(rows[0])
	flat := make([]values.Value, 0, len(rows)*arity)
	for _, row := range rows {
		if len(row) != arity {
			return nil, fmt.Errorf("engine: relation %s has arity %d, row has %d", rel, arity, len(row))
		}
		flat = append(flat, row...)
	}
	return &delta.Mutation{Op: op, Rel: rel, Arity: arity, Rows: flat}, nil
}

// Mutate applies an opaque mutation f to the instance under the
// exclusive lock. The engine fingerprints every relation before and
// after f and logs one OpReset batch naming exactly the relations that
// changed, so structures over untouched relations republish cheaply
// while structures over reset relations rebuild (a row-level delta is
// unknowable for an opaque f). The version moves only when something
// actually changed. The reset is logged even when f panics: a partial
// mutation must not be served from stale structures.
func (e *Engine) Mutate(f func(*database.Instance)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	before := fingerprints(e.in)
	defer func() {
		after := fingerprints(e.in)
		var muts []delta.Mutation
		for name, fp := range after {
			if b, ok := before[name]; !ok || b != fp {
				muts = append(muts, delta.Mutation{Op: delta.OpReset, Rel: name})
			}
		}
		for name := range before {
			if _, ok := after[name]; !ok {
				muts = append(muts, delta.Mutation{Op: delta.OpReset, Rel: name})
			}
		}
		for _, m := range muts {
			e.idx.drop(m.Rel)
		}
		if len(muts) == 0 {
			return
		}
		sort.Slice(muts, func(i, j int) bool { return muts[i].Rel < muts[j].Rel })
		b := delta.Batch{Seq: e.version + 1, Muts: muts}
		if e.wal != nil {
			// A reset replays as a no-op either way (opaque changes are
			// durable only through the next checkpoint), so a failed
			// append loses nothing but the seq advance marker — but it
			// is still an I/O error on the durability path, so count it
			// (Stats.WALErrors) instead of dropping it on the floor.
			if err := e.wal.Append(b); err != nil {
				e.walErrors.Add(1)
				if e.log != nil {
					e.log.LogAttrs(context.Background(), slog.LevelWarn, "engine: wal append failed (absorbed)",
						slog.Uint64("seq", b.Seq), slog.String("error", err.Error()))
				}
			}
		}
		e.wlog.Append(b)
		e.version = b.Seq
		e.vnow.Store(b.Seq)
		e.walBatches.Add(1)
	}()
	f(e.in)
}

// relFP fingerprints one relation for Mutate's touched-set detection:
// arity and length compared exactly, contents compared by a 64-bit
// FNV-1a hash. Equal fingerprints are treated as "unchanged", which is
// a deliberate tradeoff: a same-length hash collision would skip the
// OpReset and leave stale structures published. With random data that
// is a ~2^-64 event per relation per Mutate; callers that cannot
// accept it (adversarial tuple values chosen to collide) should use the
// explicit write path (ApplyBatch/AddRows/DeleteRows), which needs no
// fingerprinting at all.
type relFP struct {
	arity, n int
	hash     uint64
}

// fingerprints hashes every relation's contents, keyed by name, so
// Mutate can detect which relations an opaque mutation touched.
func fingerprints(in *database.Instance) map[string]relFP {
	out := make(map[string]relFP)
	for _, name := range in.Names() {
		r := in.Relation(name)
		h := uint64(14695981039346656037)
		data := r.Data()
		for _, v := range data {
			h ^= uint64(v)
			h *= 1099511628211
		}
		out[name] = relFP{arity: r.Arity(), n: len(data), hash: h}
	}
	return out
}

// Quiesce blocks until every in-flight background re-preprocess has
// finished (tests and shutdown paths use it; serving code never needs
// to).
func (e *Engine) Quiesce() { e.bg.Wait() }

// Version returns the current instance version.
func (e *Engine) Version() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	version, tuples := e.version, e.in.Size()
	e.mu.RUnlock()
	e.cmu.Lock()
	entries := e.cache.len()
	e.cmu.Unlock()
	e.rmu.Lock()
	prepared := len(e.registry)
	e.rmu.Unlock()
	return Stats{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		Entries:        entries,
		Version:        version,
		Tuples:         tuples,
		Prepared:       prepared,
		RegistryHits:   e.regHits.Load(),
		Reprepares:     e.reprepares.Load(),
		Checkpoints:    e.checkpoints.Load(),
		Restores:       e.restores.Load(),
		WarmStructures: e.warmStructures.Load(),
		WALBatches:     e.walBatches.Load(),
		DeltaSkips:     e.deltaSkips.Load(),
		DeltaEpochs:    e.deltaEpochs.Load(),
		DeltaRebuilds:  e.deltaRebuilds.Load(),
		BGRebuilds:     e.bgRebuilds.Load(),
		WALErrors:      e.walErrors.Load(),
	}
}

// Health is a point-in-time degradation snapshot: the readiness signal
// behind serve's /readyz and its write shedding.
type Health struct {
	// WALBroken reports an unrecoverable WAL append failure; writes fail
	// fast with ErrWALBroken until a restart replays the good prefix.
	WALBroken bool
	// WALErrors is the count of absorbed durable-append failures
	// (Stats.WALErrors); nonzero means the disk under the WAL is
	// unhealthy even if the log itself is still usable.
	WALErrors uint64
	// MaxOverlayEdits is the largest delta overlay any cached structure
	// carries. At or past DeltaHard the next probe of that structure
	// pays a synchronous O(n log n) rebuild — the rebuild backlog is
	// behind, and accepting more writes only digs the hole deeper.
	MaxOverlayEdits int
	// BGRebuilding is the number of background re-preprocesses in
	// flight.
	BGRebuilding int
	// DeltaHard echoes the engine's hard overlay limit so callers can
	// compare MaxOverlayEdits against it without config plumbing.
	DeltaHard int
}

// Degraded reports whether the engine should shed writes: the WAL can
// no longer durably accept them, or the rebuild backlog has fallen past
// the hard overlay limit (reads still serve, from published epochs).
func (h Health) Degraded() bool {
	return h.WALBroken || h.MaxOverlayEdits >= h.DeltaHard
}

// Health samples the engine's degradation state. It takes the read
// lock briefly (WAL state is written under the write lock) but never
// blocks on builds.
func (e *Engine) Health() Health {
	h := Health{WALErrors: e.walErrors.Load(), DeltaHard: e.deltaHard}
	e.mu.RLock()
	if e.wal != nil {
		h.WALBroken = e.wal.Broken()
	}
	e.mu.RUnlock()
	e.cmu.Lock()
	for _, ch := range e.cache.handles() {
		if d := ch.DeltaEdits(); d > h.MaxOverlayEdits {
			h.MaxOverlayEdits = d
		}
	}
	h.BGRebuilding = len(e.bgRebuilding)
	e.cmu.Unlock()
	return h
}

// specKey canonicalizes a Spec into a cache key. The key is versionless —
// one cache slot per spec, holding the handle for whatever epoch it
// last built or caught up to (Handle.version records which). FD and
// SumBy lists are order-insensitive, and Order is dropped when SumBy is
// set (parse ignores it, so the built structure is identical). The
// shard count and partition variable are part of the accessor identity:
// the same query sharded differently is a different structure. ShardBy
// is dropped when the request is unsharded.
func specKey(s Spec) string {
	fds := append([]string(nil), s.FDs...)
	sort.Strings(fds)
	sumBy := append([]string(nil), s.SumBy...)
	sort.Strings(sumBy)
	lexOrder := s.Order
	if len(sumBy) > 0 {
		lexOrder = ""
	}
	shards := normShards(s.Shards)
	shardBy := s.ShardBy
	if shards == 1 {
		shardBy = ""
	}
	return fmt.Sprintf("%s\x00%s\x00%s\x00%s\x00%d\x00%s",
		s.Query, lexOrder, strings.Join(sumBy, ","), strings.Join(fds, ";"),
		shards, shardBy)
}

// flightKey scopes a single-flight build to one instance version, so a
// build against an old epoch is never handed to a requester of a new
// one.
func flightKey(key string, version uint64) string {
	return fmt.Sprintf("%s\x00%d", key, version)
}

// parsed is a Spec after parsing against its own query.
type parsed struct {
	q   *cq.Query
	l   order.Lex
	w   order.Sum
	fds fd.Set
	sum bool
}

func parseSpec(s Spec) (*parsed, error) {
	q, err := cq.Parse(s.Query)
	if err != nil {
		return nil, err
	}
	p := &parsed{q: q}
	for _, src := range s.FDs {
		set, err := fd.Parse(q, src)
		if err != nil {
			return nil, err
		}
		p.fds = append(p.fds, set...)
	}
	if len(s.SumBy) > 0 {
		p.sum = true
		vars := make([]cq.VarID, len(s.SumBy))
		for i, name := range s.SumBy {
			id, ok := q.VarByName(name)
			if !ok {
				return nil, fmt.Errorf("engine: sum variable %q not in query", name)
			}
			vars[i] = id
		}
		p.w = order.IdentitySum(vars...)
		return p, nil
	}
	l, err := order.ParseLex(q, s.Order)
	if err != nil {
		return nil, err
	}
	p.l = l
	return p, nil
}

// Prepare plans the request and returns a ready Handle, serving it from
// the cache when the same Spec was already built against the current
// instance version. Concurrent calls for the same missing key perform a
// single build.
func (e *Engine) Prepare(s Spec) (*Handle, error) {
	h, _, err := e.prepareVersioned(s)
	return h, err
}

// PrepareCtx is Prepare with cancellation: a request whose deadline
// expires stops waiting on a shared in-flight build immediately, and a
// build it runs itself is abandoned at the next preprocessing wave
// boundary. The error then wraps ctx.Err().
func (e *Engine) PrepareCtx(ctx context.Context, s Spec) (*Handle, error) {
	h, _, err := e.prepareVersionedCtx(ctx, s)
	return h, err
}

// prepareVersioned is Prepare returning also the instance version the
// handle was resolved against, so registered queries can record which
// snapshot their current handle answers for.
func (e *Engine) prepareVersioned(s Spec) (*Handle, uint64, error) {
	return e.prepareVersionedCtx(context.Background(), s)
}

// ctxErr reports whether an error is (or wraps) a context cancellation
// or deadline expiry.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// prepareVersionedCtx resolves a spec against the current version.
//
// A cached handle at the current version is a plain hit. A cached
// handle at an older version is advanced instead of discarded:
// republished unchanged when no logged batch touched its relations,
// extended with a delta overlay when one did, rebuilt from scratch only
// when neither works (see advance). Concurrent requesters for the same
// spec at the same version share one catch-up/build through the flight
// table.
//
// A shared flight builds under its FIRST requester's context. When that
// requester gives up mid-build, waiters whose own deadlines are still
// live retry with a fresh flight rather than inheriting the stranger's
// cancellation.
func (e *Engine) prepareVersionedCtx(ctx context.Context, s Spec) (*Handle, uint64, error) {
	key := specKey(s)
	for {
		h, version, retry, err := e.prepareOnce(ctx, s, key)
		if retry && ctx.Err() == nil {
			continue
		}
		return h, version, err
	}
}

// prepareOnce is one attempt of prepareVersionedCtx; retry=true means
// the flight it joined died of its builder's cancellation, not ours.
func (e *Engine) prepareOnce(ctx context.Context, s Spec, key string) (*Handle, uint64, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	version := e.version
	fk := flightKey(key, version)

	e.cmu.Lock()
	var stale *Handle
	if h := e.cache.get(key); h != nil {
		if h.version == version {
			e.cmu.Unlock()
			e.hits.Add(1)
			return h, version, false, nil
		}
		stale = h
	}
	if fl, ok := e.flights[fk]; ok {
		e.cmu.Unlock()
		// The builder also holds mu.RLock, so waiting here cannot
		// deadlock with a writer: both readers run to completion first.
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, 0, false, ctx.Err()
		}
		if fl.err != nil && ctxErr(fl.err) {
			return nil, 0, true, fl.err
		}
		e.hits.Add(1)
		return fl.h, version, false, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	e.flights[fk] = fl
	e.cmu.Unlock()

	if stale != nil {
		fl.h = e.advance(s, key, stale, version)
	}
	if fl.h != nil {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
		start := time.Now()
		fl.h, fl.err = e.build(ctx, s)
		if fl.err == nil {
			fl.h.version = version
		}
		e.logBuild(ctx, s, version, stale != nil, time.Since(start), fl.err)
		trace.FromContext(ctx).AddEvent("engine.build",
			trace.Str("query", s.Query),
			trace.Int("version", int64(version)),
			trace.Int("duration_us", time.Since(start).Microseconds()))
	}

	e.cmu.Lock()
	if fl.err == nil {
		// Same guard as spawnRebuild: a slow catch-up for an older
		// version must not overwrite a newer handle a concurrent request
		// already cached.
		if cur := e.cache.get(key); cur == nil || cur.version <= fl.h.version {
			e.cache.add(key, fl.h)
		}
	}
	// Deregister before waking waiters: a waiter retrying after a
	// canceled build must find either the cached result or no flight at
	// all, never the dead flight again (which would spin).
	delete(e.flights, fk)
	e.cmu.Unlock()
	close(fl.done)
	return fl.h, version, false, fl.err
}

// logBuild emits one structured event for a synchronous structure
// build (a cache miss, or a stale handle that could not catch up via
// the delta overlay), tagged with the request id of the triggering
// request when its context carries one — that join is what lets an
// operator attribute a latency spike to the build that caused it.
func (e *Engine) logBuild(ctx context.Context, s Spec, version uint64, rebuild bool, d time.Duration, err error) {
	if e.log == nil {
		return
	}
	level := slog.LevelInfo
	attrs := make([]slog.Attr, 0, 6)
	attrs = append(attrs,
		slog.String("query", s.Query),
		slog.Uint64("version", version),
		slog.Bool("rebuild", rebuild),
		slog.Duration("duration", d),
	)
	if id := reqid.From(ctx); id != "" {
		attrs = append(attrs, slog.String("request_id", id))
	}
	if err != nil {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	e.log.LogAttrs(ctx, level, "engine: structure build", attrs...)
}

// directAccess runs the paper's direct-access dichotomy for the spec's
// order — Theorem 4.1 for lex, Theorem 5.1 for SUM, on the FD-extension
// per §8 when the spec carries FDs — returning the FD witness too.
func (p *parsed) directAccess() (classify.Verdict, classify.WithFDs) {
	if p.sum {
		return classify.DirectAccessSum(p.q, p.fds)
	}
	return classify.DirectAccessLex(p.q, p.l, p.fds)
}

// kind is the tractable structure kind of the spec's order.
func (p *parsed) kind() shard.Kind {
	return shard.Kind{IsSum: p.sum, Lex: p.l, Sum: p.w, FDs: p.fds}
}

// tractableMode names the tractable structure of a lex or SUM order.
func tractableMode(sum bool) Mode {
	if sum {
		return ModeSum
	}
	return ModeLayeredLex
}

// ladder is the decision procedure every build runs, whoever owns the
// shards (a local engine all of them or none, a cluster node some):
// classify; on the tractable side ask build for the ⟨n log n, log n⟩
// structure; on an intractability certificate — the verdict's or the
// builder's — ask it for the materialize-and-sort fallback instead.
// build receives the structure kind and the classification's FD
// witness; the verdict, mode and side land in plan.
func ladder(ctx context.Context, p *parsed, plan *Plan, build func(shard.Kind, classify.WithFDs) error) error {
	var wfd classify.WithFDs
	plan.Verdict, wfd = p.directAccess()
	k := p.kind()
	if plan.Verdict.Tractable {
		err := build(k, wfd)
		if err == nil {
			plan.Mode, plan.Tractable = tractableMode(p.sum), true
			return nil
		}
		var ie *access.IntractableError
		if !errors.As(err, &ie) {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	k.Materialized = true
	plan.Mode = ModeMaterialized
	return build(k, wfd)
}

// build plans and constructs a structure; the caller holds mu.RLock, so
// the instance is stable throughout. Layered-lex builds, sharded or
// not, check ctx at every preprocessing wave boundary; the other
// structure kinds check it once before their (uninterruptible)
// construction. A build that succeeds is observed by buildSeconds.
func (e *Engine) build(ctx context.Context, s Spec) (h *Handle, err error) {
	if hist := e.buildSeconds.Load(); hist != nil {
		defer func(start time.Time) {
			if err == nil {
				hist.ObserveDuration(time.Since(start))
			}
		}(time.Now())
	}
	if e.remote != nil {
		return e.buildRemote(ctx, s)
	}
	p, err := parseSpec(s)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shards := normShards(s.Shards)
	if shards > 1 && s.ShardBy != "" {
		// Reject a bad explicit partition variable instead of silently
		// falling back: the caller asked for something specific, and
		// some fallback paths never reach shard.Choose.
		if err := shard.ValidateBy(p.q, s.ShardBy); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	h = &Handle{Query: p.q, spec: s, rels: queryRels(p.q)}
	err = ladder(ctx, p, &h.Plan, func(k shard.Kind, wfd classify.WithFDs) (err error) {
		if shards > 1 {
			err := e.buildSharded(ctx, h, p, k, wfd, s.ShardBy, shards)
			if err == nil || ctxErr(err) {
				return err
			}
			// Anything else (unshardable query, FD violation, …) falls
			// back to a single structure, which reproduces query-level
			// errors exactly.
			h.Plan.ShardNote = err.Error()
		}
		h.st, _, err = k.Build(ctx, p.q, e.in)
		return err
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// queryRels collects the relation symbols a query references.
func queryRels(q *cq.Query) map[string]bool {
	rels := make(map[string]bool, len(q.Atoms))
	for i := range q.Atoms {
		rels[q.Atoms[i].Rel] = true
	}
	return rels
}

// buildSharded builds h's structure of kind k hash-partitioned: choose
// the partitioning, then split, build per shard and merge (shard.Build).
// FD specs on the tractable side are extended globally first, once,
// before the split — the extension shares variable ids with the
// original query, the reordered order L⁺ sorts Q⁺(I⁺) exactly as L
// sorts Q(I) (Lemma 8.16), and promoted variables weigh zero under SUM
// (Lemma 8.5) — so every shard prices foreign candidates against
// complete FD-implied values. The fallback ignores FDs, as it does
// unsharded: they change neither the answer set nor the realized order.
// An error leaves h untouched.
func (e *Engine) buildSharded(ctx context.Context, h *Handle, p *parsed, k shard.Kind, w classify.WithFDs, by string, shards int) error {
	q, in := p.q, e.in
	k.FDs = nil // extended away below, and the fallback ignores them
	var project func(order.Answer) order.Answer
	var extend func(order.Answer) (order.Answer, bool)
	if len(p.fds) > 0 && !k.Materialized {
		if err := p.fds.Check(p.q, e.in); err != nil {
			return err
		}
		iplus, err := w.Ext.ExtendInstance(p.q, e.in)
		if err != nil {
			return err
		}
		if !k.IsSum {
			if extend, err = w.Ext.AnswerExtender(p.q, e.in); err != nil {
				return err
			}
			k.Lex = w.LPlus
		}
		orig := p.q
		project = func(a order.Answer) order.Answer { return fd.ProjectAnswer(orig, a) }
		q, in = w.Ext.Query, iplus
	}
	pt, err := shard.Choose(q, by, shards)
	if err != nil {
		return err
	}
	sh, err := shard.Merge(shard.Build(ctx, q, in, k, pt, nil))
	if err != nil {
		return err
	}
	h.sh, h.shProject, h.shExtend = sh, project, extend
	h.Plan.Shards, h.Plan.ShardBy = pt.P, pt.VarName
	return nil
}

// Access is Prepare plus a batch of probes in one call: it returns the
// handle (for Total and further probes) and one head tuple or error per
// requested index. The final error reports a planning failure (bad
// query, bad order); per-index failures such as out-of-bound indices
// land in errs without failing the batch.
func (e *Engine) Access(s Spec, ks []int64) (*Handle, [][]values.Value, []error, error) {
	h, err := e.Prepare(s)
	if err != nil {
		return nil, nil, nil, err
	}
	tuples := make([][]values.Value, len(ks))
	errs := make([]error, len(ks))
	// One flat backing array serves the whole batch; each answer is a
	// capped sub-slice of it.
	flat := make([]values.Value, 0, len(ks)*h.Width())
	for i, k := range ks {
		start := len(flat)
		flat, err = h.AppendTuple(flat, k)
		if err != nil {
			errs[i] = err
			flat = flat[:start]
			continue
		}
		tuples[i] = flat[start:len(flat):len(flat)]
	}
	return h, tuples, errs, nil
}

// AccessRange is Prepare plus a contiguous probe batch: it returns the
// handle and the head tuples of answers k0 ≤ k < k1 appended to dst
// (h.Width values per answer), amortizing planning, cache lookup, and
// probe-buffer setup over the whole range.
func (e *Engine) AccessRange(s Spec, dst []values.Value, k0, k1 int64) (*Handle, []values.Value, error) {
	h, err := e.Prepare(s)
	if err != nil {
		return nil, dst, err
	}
	dst, err = h.AccessRange(dst, k0, k1)
	return h, dst, err
}

// Select answers the one-shot selection problem — O(n) for lex orders,
// O(n log n) for SUM — without building or caching any structure.
func (e *Engine) Select(s Spec, k int64) ([]values.Value, error) {
	if e.remote != nil {
		return e.selectRemote(s, k)
	}
	p, err := parseSpec(s)
	if err != nil {
		return nil, err
	}
	return e.selectParsed(p, k)
}

// selectParsed is Select after parsing; registered queries call it with
// their cached parse, skipping per-request spec processing.
func (e *Engine) selectParsed(p *parsed, k int64) ([]values.Value, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var err error
	var a order.Answer
	if p.sum {
		a, err = selection.SelectSum(p.q, e.in, p.w, p.fds, k)
	} else {
		a, err = selection.SelectLex(p.q, e.in, p.l, p.fds, k)
	}
	if err != nil {
		return nil, err
	}
	out := make([]values.Value, len(p.q.Head))
	for i, v := range p.q.Head {
		out[i] = a[v]
	}
	return out, nil
}

// Count returns |Q(I)| in linear time for free-connex queries.
func (e *Engine) Count(query string) (int64, error) {
	n, _, err := e.CountSharded(context.Background(), query, 0, "")
	return n, err
}

// CountInfo reports how a CountSharded request was executed: the shard
// count and partition variable actually used (zero/empty when the
// count ran unsharded), and the fallback reason if sharding was
// requested but impossible.
type CountInfo = api.ShardEcho

// CountSharded is Count with scatter-gather: for shards ≥ 2 the
// instance is partitioned, every shard is counted in parallel, and the
// counts sum (shard answer sets partition Q(I)). Queries that cannot
// be partitioned fall back to the single-instance count, recorded in
// the returned CountInfo; an explicit partition variable that is not a
// free variable of the query is an error. On a coordinator ctx rides
// the scatter (deadline, trace); a local count only checks it up front.
func (e *Engine) CountSharded(ctx context.Context, query string, shards int, by string) (int64, CountInfo, error) {
	var info CountInfo
	if err := ctx.Err(); err != nil {
		return 0, info, err
	}
	if e.remote != nil {
		// A coordinator counts by scatter-gather over its cluster; the
		// cluster's own shard count applies, not the request's.
		return e.remote.CountRemote(ctx, query, by)
	}
	q, err := cq.Parse(query)
	if err != nil {
		return 0, info, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if p := normShards(shards); p > 1 {
		pt, err := shard.Choose(q, by, p)
		var ue *shard.UnshardableError
		switch {
		case err == nil:
			if n, err := shard.Count(q, e.in, pt, nil); err == nil {
				info.Shards, info.ShardBy = pt.P, pt.VarName
				return n, info, nil
			}
			// Per-shard counting failures are query-level (not
			// free-connex); the single-instance path reproduces the
			// error exactly.
			info.ShardNote = "per-shard count failed; recounted unsharded"
		case errors.As(err, &ue):
			info.ShardNote = err.Error()
		default:
			return 0, info, err
		}
	}
	n, err := selection.CountAnswers(q, e.in)
	return n, info, err
}

// Problem names for Classify.
const (
	ProblemDirectAccessLex = "direct-access-lex"
	ProblemSelectionLex    = "selection-lex"
	ProblemDirectAccessSum = "direct-access-sum"
	ProblemSelectionSum    = "selection-sum"
)

// Classify runs the paper's dichotomy for the named problem on a Spec.
func (e *Engine) Classify(problem string, s Spec) (classify.Verdict, error) {
	p, err := parseSpec(s)
	if err != nil {
		return classify.Verdict{}, err
	}
	return classifyParsed(problem, p)
}

// classifyParsed is Classify after parsing (the dichotomies depend only
// on the query, order, and FDs — never on data).
func classifyParsed(problem string, p *parsed) (v classify.Verdict, err error) {
	switch problem {
	case ProblemDirectAccessLex:
		v, _ = classify.DirectAccessLex(p.q, p.l, p.fds)
	case ProblemSelectionLex:
		v, _ = classify.SelectionLex(p.q, p.l, p.fds)
	case ProblemDirectAccessSum:
		v, _ = classify.DirectAccessSum(p.q, p.fds)
	case ProblemSelectionSum:
		v, _ = classify.SelectionSum(p.q, p.fds)
	default:
		err = fmt.Errorf("engine: unknown problem %q", problem)
	}
	return v, err
}
