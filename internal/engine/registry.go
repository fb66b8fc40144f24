package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rankedaccess/internal/classify"
	"rankedaccess/internal/values"
)

// MaxNameLen bounds registered query names (they travel in URL paths).
const MaxNameLen = 128

// MaxRegistered bounds the named-query registry. Every registration
// pins an O(n) built structure for its lifetime (unlike the LRU-bounded
// accessor cache), so an unbounded registry would let a client loop of
// unique names grow server memory without limit. Registration of a NEW
// name fails once the bound is hit; re-registration and eviction always
// work.
const MaxRegistered = 1024

// PreparedID identifies one registration of a name. Re-registering a
// name yields a new Gen, so stale IDs are distinguishable from the
// current registration of the same name.
type PreparedID struct {
	Name string
	Gen  uint64
}

// preparedHandle pairs a built handle with the instance version it was
// resolved against; swapped atomically on re-prepare.
type preparedHandle struct {
	h       *Handle
	version uint64
}

// PreparedQuery is a registered named query: a Spec parsed and built
// once, probed many times by name. Its fast path — Acquire with an
// unchanged instance version — touches no lock, no map, and no spec
// text: one atomic pointer load and one atomic version load. When the
// instance version changed, the next Acquire transparently re-prepares
// (through the engine's structure cache and single-flight table)
// instead of failing or silently serving stale answers.
//
// A PreparedQuery is safe for concurrent use by any number of
// goroutines.
type PreparedQuery struct {
	e    *Engine
	id   PreparedID
	spec Spec
	// p is the spec parsed once at registration; by-name Select and
	// Classify reuse it instead of re-parsing per request. Immutable.
	p *parsed

	// prepMu serializes slow-path re-preparation; the built result is
	// published through cur so fast-path readers never block on it.
	prepMu sync.Mutex
	cur    atomic.Pointer[preparedHandle]

	// evicted flips once when the registration is removed; live holders
	// keep working (handles are immutable) but stop re-preparing.
	evicted atomic.Bool
}

// ID returns the registration identity.
func (pq *PreparedQuery) ID() PreparedID { return pq.id }

// Spec returns a copy of the registered spec.
func (pq *PreparedQuery) Spec() Spec { return pq.spec }

// Acquire returns a Handle answering for the current instance version,
// re-preparing if a mutation happened since the last build. The
// returned handle is an immutable snapshot: it stays valid (answering
// for its own version) even if the instance mutates afterwards.
func (pq *PreparedQuery) Acquire() (*Handle, error) {
	h, _, err := pq.acquireVersioned()
	return h, err
}

// AcquireCtx is Acquire with cancellation: the fast path is unchanged
// (one atomic load, no context check), but a slow-path re-prepare obeys
// the request's deadline like PrepareCtx does.
func (pq *PreparedQuery) AcquireCtx(ctx context.Context) (*Handle, error) {
	h, _, err := pq.acquireVersionedCtx(ctx)
	return h, err
}

// Current returns the registration's last published handle without
// re-preparing, plus whether its epoch is the engine's current version.
// A stale-but-present handle is the graceful-degradation read path:
// under overload the serve layer answers from the last published epoch
// (every handle is an immutable, internally consistent snapshot) rather
// than paying a catch-up it has no budget for.
func (pq *PreparedQuery) Current() (h *Handle, fresh bool) {
	cur := pq.cur.Load()
	if cur == nil {
		return nil, false
	}
	return cur.h, cur.version == pq.e.versionNow()
}

// acquireVersioned is Acquire returning also the instance version the
// handle was built for — the version cursors must pin to (reading the
// engine's current version separately would race with mutations and
// could pin an old handle to a new version).
func (pq *PreparedQuery) acquireVersioned() (*Handle, uint64, error) {
	return pq.acquireVersionedCtx(context.Background())
}

func (pq *PreparedQuery) acquireVersionedCtx(ctx context.Context) (*Handle, uint64, error) {
	if cur := pq.cur.Load(); cur != nil && cur.version == pq.e.versionNow() {
		pq.e.regHits.Add(1)
		return cur.h, cur.version, nil
	}
	return pq.reprepare(ctx)
}

// reprepare rebuilds the handle for the current version; concurrent
// callers for one PreparedQuery serialize here but share the build
// itself through the engine's single-flight table.
func (pq *PreparedQuery) reprepare(ctx context.Context) (*Handle, uint64, error) {
	pq.prepMu.Lock()
	defer pq.prepMu.Unlock()
	if cur := pq.cur.Load(); cur != nil && cur.version == pq.e.versionNow() {
		pq.e.regHits.Add(1)
		return cur.h, cur.version, nil
	}
	h, version, err := pq.e.prepareVersionedCtx(ctx, pq.spec)
	if err != nil {
		return nil, 0, err
	}
	if !pq.evicted.Load() {
		pq.cur.Store(&preparedHandle{h: h, version: version})
	}
	pq.e.reprepares.Add(1)
	return h, version, nil
}

// Select answers the one-shot selection problem for the registered
// spec (O(n) lex / O(n log n) SUM, no structure built), reusing the
// registration-time parse.
func (pq *PreparedQuery) Select(k int64) ([]values.Value, error) {
	if pq.e.remote != nil {
		return pq.e.selectRemote(pq.spec, k)
	}
	return pq.e.selectParsed(pq.p, k)
}

// Classify runs the named dichotomy problem on the registered spec,
// reusing the registration-time parse.
func (pq *PreparedQuery) Classify(problem string) (classify.Verdict, error) {
	return classifyParsed(problem, pq.p)
}

// validName reports whether a registration name is acceptable: 1 to
// MaxNameLen characters from [A-Za-z0-9_.-] (safe in URL path segments
// unescaped, and never empty or a path traversal).
func validName(name string) bool {
	if name == "" || len(name) > MaxNameLen || name == "." || name == ".." {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '_' || c == '-' || c == '.':
		default:
			return false
		}
	}
	return true
}

// Register parses, plans, and builds the spec once, then publishes it
// under the given name. Registering an already-used name atomically
// replaces the previous registration (its holders keep their immutable
// handles). Registration fails — and registers nothing — when the name
// is invalid or the spec does not parse/build.
func (e *Engine) Register(name string, s Spec) (*PreparedQuery, error) {
	if !validName(name) {
		return nil, fmt.Errorf("engine: invalid prepared-query name %q (want 1-%d chars of [A-Za-z0-9_.-])", name, MaxNameLen)
	}
	h, version, err := e.prepareVersioned(s)
	if err != nil {
		return nil, err
	}
	p, err := parseSpec(s) // cannot fail: prepareVersioned parsed the same spec
	if err != nil {
		return nil, err
	}
	pq := &PreparedQuery{e: e, spec: s, p: p}
	pq.cur.Store(&preparedHandle{h: h, version: version})
	e.rmu.Lock()
	old := e.registry[name]
	if old == nil && len(e.registry) >= MaxRegistered {
		e.rmu.Unlock()
		return nil, fmt.Errorf("engine: registry full (%d prepared queries); evict one before registering %q", MaxRegistered, name)
	}
	e.regGen++
	e.regChanges++
	pq.id = PreparedID{Name: name, Gen: e.regGen}
	if old != nil {
		old.evicted.Store(true)
	}
	e.registry[name] = pq
	e.rmu.Unlock()
	return pq, nil
}

// Prepared returns the registered query of the given name, or an error
// wrapping ErrNotPrepared.
func (e *Engine) Prepared(name string) (*PreparedQuery, error) {
	e.rmu.Lock()
	pq := e.registry[name]
	e.rmu.Unlock()
	if pq == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotPrepared, name)
	}
	return pq, nil
}

// Evict removes the named registration, reporting whether it existed.
// Holders of the PreparedQuery or of handles acquired from it are
// unaffected beyond losing automatic re-preparation.
func (e *Engine) Evict(name string) bool {
	e.rmu.Lock()
	pq := e.registry[name]
	if pq != nil {
		delete(e.registry, name)
		e.regChanges++
	}
	e.rmu.Unlock()
	if pq == nil {
		return false
	}
	pq.evicted.Store(true)
	return true
}

// EvictID removes the registration only if it is still the one the
// caller registered (same name AND generation), so undoing one's own
// registration cannot delete a concurrent re-registration of the name.
func (e *Engine) EvictID(id PreparedID) bool {
	e.rmu.Lock()
	pq := e.registry[id.Name]
	if pq == nil || pq.id != id {
		e.rmu.Unlock()
		return false
	}
	delete(e.registry, id.Name)
	e.regChanges++
	e.rmu.Unlock()
	pq.evicted.Store(true)
	return true
}

// PreparedInfo describes one registered query for listings.
type PreparedInfo struct {
	ID   PreparedID
	Spec Spec
	// Plan and Total describe the registration's current handle (the
	// one the next same-version Acquire returns).
	Plan Plan
	// Total is |Q(I)| as of the current handle's build.
	Total int64
	// Version is the instance version the current handle answers for.
	Version uint64
}

// ListPrepared snapshots all registrations, sorted by name.
func (e *Engine) ListPrepared() []PreparedInfo {
	e.rmu.Lock()
	pqs := make([]*PreparedQuery, 0, len(e.registry))
	for _, pq := range e.registry {
		pqs = append(pqs, pq)
	}
	e.rmu.Unlock()
	sort.Slice(pqs, func(i, j int) bool { return pqs[i].id.Name < pqs[j].id.Name })
	out := make([]PreparedInfo, len(pqs))
	for i, pq := range pqs {
		out[i] = PreparedInfo{ID: pq.id, Spec: pq.spec}
		if cur := pq.cur.Load(); cur != nil {
			out[i].Plan = cur.h.Plan
			out[i].Total = cur.h.Total()
			out[i].Version = cur.version
		}
	}
	return out
}
