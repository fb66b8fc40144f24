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
//   - mutations are MVCC: ApplyBatch (and its AddRows/DeleteRows
//     wrappers) is the one write path. Every write appends a row-level
//     batch to a write-ahead log (internal/delta) and bumps the version,
//     but never purges the cache. A later Prepare of a stale structure
//     catches up by replaying the logged batches — republishing the
//     structure unchanged when no batch touches its relations, merging
//     the answer-level delta in as a small sorted overlay
//     (internal/access.Overlay) when one does, and falling back to a
//     full rebuild only when the log tail no longer reaches back, the
//     structure cannot carry an overlay, or the overlay grew past the
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
	// Shards and ShardBy are the cluster's shard count and the
	// partition variable a coordinator handle merges over (0 and empty
	// on a local handle, which serves one structure).
	Shards  int
	ShardBy string
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

	// st is the structure local probes go through (nil on a coordinator
	// handle): the built structure itself, or — when ov is non-nil — ov,
	// the merged view of that structure (ov.Base()) plus the
	// answer-level edits ovAdds/ovDels accumulated since it was built.
	// Immutable, like everything else on a Handle: a catch-up publishes
	// a new Handle with a new overlay.
	st     access.Structure
	ov     *access.Overlay
	ovAdds []order.Answer
	ovDels []order.Answer

	// sh merges the remote shard parts of a coordinator handle (nil on
	// a local one).
	sh *shard.Handle
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
	return h.sh.Access(ctx, k)
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
	// synchronously (truncated log tail, ineligible structure, or an
	// overlay past the hard limit).
	DeltaRebuilds uint64
	// BGRebuilds counts background re-preprocesses that completed and
	// swapped a fresh structure into the cache.
	BGRebuilds uint64
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

// New returns an Engine over the given instance (nil: an empty one) at
// version 0. The Engine owns the instance from here on: mutate it only
// through the write path (ApplyBatch/AddRows/DeleteRows).
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
// the log — see the package comment. A batch carrying delta.OpReset is
// refused: only an old WAL holds one, and Open replays it as nothing.
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
		if muts[i].Op == delta.OpReset {
			return 0, fmt.Errorf("engine: reset %s: an old WAL's marker, never applied", muts[i].Rel)
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
			continue // an old WAL's marker: replay applies nothing
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
	}
}

// Health is a point-in-time degradation snapshot: the readiness signal
// behind serve's /readyz and its write shedding.
type Health struct {
	// WALBroken reports an unrecoverable WAL append failure; writes fail
	// fast with ErrWALBroken until a restart replays the good prefix.
	WALBroken bool
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

// Reasons words each degradation Degraded counts, for serve's /readyz
// and a cluster node's health report; nil when there is none.
func (h Health) Reasons() []string {
	var r []string
	if h.WALBroken {
		r = append(r, "wal broken: mutations cannot be made durable")
	}
	if h.MaxOverlayEdits >= h.DeltaHard {
		r = append(r, fmt.Sprintf("rebuild backlog: overlay at %d edits (hard limit %d)", h.MaxOverlayEdits, h.DeltaHard))
	}
	return r
}

// Health samples the engine's degradation state. It takes the read
// lock briefly (WAL state is written under the write lock) but never
// blocks on builds.
func (e *Engine) Health() Health {
	h := Health{DeltaHard: e.deltaHard}
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
// set (parse ignores it, so the built structure is identical). Shards
// is dropped: a coordinator shards by its cluster's count whatever the
// request says. ShardBy stays, since it picks a coordinator's partition
// variable; a local engine clears both before keying (see
// prepareVersionedCtx).
func specKey(s Spec) string {
	fds := append([]string(nil), s.FDs...)
	sort.Strings(fds)
	sumBy := append([]string(nil), s.SumBy...)
	sort.Strings(sumBy)
	lexOrder := s.Order
	if len(sumBy) > 0 {
		lexOrder = ""
	}
	return fmt.Sprintf("%s\x00%s\x00%s\x00%s\x00%s",
		s.Query, lexOrder, strings.Join(sumBy, ","), strings.Join(fds, ";"), s.ShardBy)
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
	if e.remote == nil {
		// A local engine serves every spec from one structure: the
		// shard fields steer only a coordinator.
		s.Shards, s.ShardBy = 0, ""
	}
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
		e.publishLocked(key, fl.h)
	}
	// Deregister before waking waiters: a waiter retrying after a
	// canceled build must find either the cached result or no flight at
	// all, never the dead flight again (which would spin).
	delete(e.flights, fk)
	e.cmu.Unlock()
	close(fl.done)
	return fl.h, version, false, fl.err
}

// publishLocked caches a flight's handle unless the cache already holds
// one of its version or newer: a slow catch-up for an older version
// must not overwrite a newer handle a concurrent request cached, nor one
// for the same version the rebuild its own overlay scheduled (see
// advance), which can swap in before the catch-up gets here. The caller
// holds cmu.
func (e *Engine) publishLocked(key string, h *Handle) {
	if cur := e.cache.get(key); cur == nil || cur.version < h.version {
		e.cache.add(key, h)
	}
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
// per §8 when the spec carries FDs.
func (p *parsed) directAccess() (v classify.Verdict) {
	if p.sum {
		v, _ = classify.DirectAccessSum(p.q, p.fds)
	} else {
		v, _ = classify.DirectAccessLex(p.q, p.l, p.fds)
	}
	return v
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

// ladder is the decision procedure every build runs, whoever builds (a
// local engine its one structure, a cluster node the shards it owns):
// classify; on the tractable side ask build for the ⟨n log n, log n⟩
// structure; on an intractability certificate — the verdict's or the
// builder's — ask it for the materialize-and-sort fallback instead.
// build receives the structure kind; the verdict, mode and side land
// in plan.
func ladder(ctx context.Context, p *parsed, plan *Plan, build func(shard.Kind) error) error {
	plan.Verdict = p.directAccess()
	k := p.kind()
	if plan.Verdict.Tractable {
		err := build(k)
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
	return build(k)
}

// build plans and constructs a structure; the caller holds mu.RLock, so
// the instance is stable throughout. Layered-lex builds check ctx at
// every preprocessing wave boundary; the other structure kinds check it
// once before their (uninterruptible) construction. A build that succeeds is observed by buildSeconds.
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
	h = &Handle{Query: p.q, spec: s, rels: queryRels(p.q)}
	err = ladder(ctx, p, &h.Plan, func(k shard.Kind) (err error) {
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
	n, _, err := e.CountCtx(context.Background(), query, "")
	return n, err
}

// CountInfo reports how a coordinator's count was partitioned: the
// cluster's shard count and partition variable (zero and empty on a
// local engine).
type CountInfo = api.ShardEcho

// CountCtx is Count with a caller context. A coordinator counts by
// scatter-gather over its cluster, partitioned on the free variable by
// names (empty picks one), with ctx riding the scatter; a local engine
// ignores by and only checks ctx up front.
func (e *Engine) CountCtx(ctx context.Context, query, by string) (int64, CountInfo, error) {
	if err := ctx.Err(); err != nil {
		return 0, CountInfo{}, err
	}
	if e.remote != nil {
		return e.remote.CountRemote(ctx, query, by)
	}
	q, err := cq.Parse(query)
	if err != nil {
		return 0, CountInfo{}, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	n, err := selection.CountAnswers(q, e.in)
	return n, CountInfo{}, err
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
