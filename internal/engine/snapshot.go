package engine

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/api"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/order"
	"rankedaccess/internal/snapshot"
	"rankedaccess/internal/values"
)

// WALFileName is the durable write-ahead log's file name within a
// snapshot directory (alongside the snapshot files themselves).
const WALFileName = "wal.log"

// This file is the engine's durability layer: Checkpoint serializes the
// instance, the built access structures, and the prepared-query
// registry into an internal/snapshot file; Open and Restore rebuild an
// engine from one, reconstructing every structure zero-copy over the
// mapped file instead of re-running the O(n log n) preprocessing.
//
// What is persisted: the instance (all relations plus the value
// dictionary), every cached or registered unsharded structure built
// without FDs (their flat columns map back verbatim), and the registry
// names and specs. Sharded and FD-extended structures carry closures
// and per-shard state that do not serialize; they are skipped and
// simply rebuild on first use after a warm start, exactly as on a cold
// cache miss. The registry itself always survives: registrations are
// rehydrated lazily, so the first by-name probe after a warm start hits
// the preloaded structure cache instead of re-preparing.

// CheckpointInfo reports what a Checkpoint wrote, and RestoreInfo what
// an Open or Restore loaded: the /v1/snapshots response bodies
// themselves.
type (
	CheckpointInfo = api.SnapshotInfo
	RestoreInfo    = api.RestoreInfo
)

// Checkpoint atomically persists the engine's current state into dir
// (write to a temporary file, fsync, rename). It holds the instance
// read lock for the duration, so it runs concurrently with queries but
// delays mutations.
func (e *Engine) Checkpoint(dir string) (CheckpointInfo, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.checkpointLocked(dir)
}

// checkpointLocked is Checkpoint's body; the caller holds e.mu (shared
// suffices, the restore path holds it exclusively).
func (e *Engine) checkpointLocked(dir string) (CheckpointInfo, error) {
	info := CheckpointInfo{Version: e.version}
	b := snapshot.NewBuilder(e.version, time.Now().UnixNano())
	for _, name := range e.in.Names() {
		r := e.in.Relation(name)
		b.AddRelation(name, r.Arity(), r.Data())
	}
	if d := e.in.Dict; d != nil {
		b.SetDict(d.Names())
	}

	// Candidate structures: everything cached (all current-version by
	// construction) plus the registrations' current handles, deduped by
	// spec identity and persisted in deterministic order.
	e.cmu.Lock()
	handles := e.cache.handles()
	e.cmu.Unlock()
	e.rmu.Lock()
	regs := make([]*PreparedQuery, 0, len(e.registry))
	for _, pq := range e.registry {
		regs = append(regs, pq)
	}
	mark := savedMark{version: e.version, regChanges: e.regChanges}
	e.rmu.Unlock()
	sort.Slice(regs, func(i, j int) bool { return regs[i].id.Name < regs[j].id.Name })
	for _, pq := range regs {
		if cur := pq.cur.Load(); cur != nil && cur.version == e.version {
			handles = append(handles, cur.h)
		}
	}
	byKey := make(map[string]*Handle, len(handles))
	keys := make([]string, 0, len(handles))
	for _, h := range handles {
		// Only structures answering for the checkpointed version persist;
		// a stale handle or an overlay epoch (whose edits have no flat
		// encoding) simply rebuilds on demand after a warm start.
		if h.version != e.version || h.ov != nil {
			info.Skipped++
			continue
		}
		key := specKey(h.spec)
		if _, ok := byKey[key]; ok {
			continue
		}
		byKey[key] = h
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sm, ok := structureMeta(b, byKey[key])
		if !ok {
			info.Skipped++
			continue
		}
		b.AddStructure(sm)
		info.Structures++
	}
	for _, pq := range regs {
		b.AddRegistration(pq.id.Name, pq.spec)
		info.Registrations++
	}

	name, size, err := snapshot.WriteFileFS(e.fs, dir, b)
	if err != nil {
		return info, fmt.Errorf("engine: checkpoint: %w", err)
	}
	// Every logged batch with Seq ≤ e.version is now inside the durable
	// snapshot, and the read lock held here excludes concurrent appends,
	// so the WAL can be emptied. Replay is version-guarded anyway
	// (batches with Seq ≤ the snapshot version are skipped), so a crash
	// between the rename above and this truncation loses nothing.
	if e.wal != nil {
		if err := e.wal.TruncateAll(); err != nil {
			return info, fmt.Errorf("engine: checkpoint: truncating WAL: %w", err)
		}
	}
	info.Name, info.Bytes = name, size
	e.checkpoints.Add(1)
	if dir == e.snapDir {
		e.markSaved(mark)
	}
	return info, nil
}

// savedMark is what a checkpoint holds, as far as Unsaved can tell: the
// instance version and the registry's change count.
type savedMark struct{ version, regChanges uint64 }

func (e *Engine) markSaved(m savedMark) {
	e.smu.Lock()
	e.saved = &m
	e.smu.Unlock()
}

// Unsaved reports whether a checkpoint into the directory the engine was
// opened from would persist anything new: the instance version moved, or
// the registry did (a registration or an eviction, neither of which
// moves the version), since the newest checkpoint written there — by
// Checkpoint or by a live Restore — or since the warm start that read
// one. Writes the WAL replayed at Open count as saved: they are durable
// already. An engine holding nothing known to be on disk is unsaved.
func (e *Engine) Unsaved() bool {
	e.rmu.Lock()
	now := savedMark{version: e.vnow.Load(), regChanges: e.regChanges}
	e.rmu.Unlock()
	e.smu.Lock()
	defer e.smu.Unlock()
	return e.saved == nil || *e.saved != now
}

// Open warm-starts an engine from the newest snapshot in dir: the
// instance is restored, every persisted structure is reconstructed
// zero-copy over the mapped file into the accessor cache, the
// prepared-query registry is rehydrated (handles resolve lazily, on
// first probe, against that cache), and the durable WAL in dir is
// replayed — batches newer than the snapshot are re-applied to the
// instance and re-enter the in-memory log, so acknowledged writes
// survive a crash between checkpoints. The opened engine keeps the WAL
// attached: every later write appends to it. warm is false when dir
// holds no snapshot (the WAL may still have replayed writes into the
// otherwise-fresh engine).
func Open(dir string, opts Options) (*Engine, bool, error) {
	name, ok, err := snapshot.Latest(dir)
	if err != nil {
		return nil, false, fmt.Errorf("engine: open %s: %w", dir, err)
	}
	e := New(nil, opts)
	if ok {
		if _, err := e.loadSnapshot(filepath.Join(dir, name), true); err != nil {
			return nil, false, err
		}
	}
	w, batches, err := delta.OpenWALFS(e.fs, filepath.Join(dir, WALFileName))
	if err != nil {
		e.Close()
		return nil, false, fmt.Errorf("engine: open %s: %w", dir, err)
	}
	e.mu.Lock()
	for i, b := range batches {
		if b.Seq <= e.version {
			continue // already inside the snapshot
		}
		if verr := validateArity(e.in, b.Muts); verr != nil {
			// A frame that passes its CRC but fails validation against
			// the state it replays onto cannot come from the engine's own
			// write path (ApplyBatch validates before appending); it is
			// corruption the framing layer cannot see. Salvage like a
			// torn tail — keep the good prefix, truncate the rest — so
			// one bad frame cannot turn every restart into a crash.
			if terr := w.DiscardFrom(i, e.version); terr != nil {
				e.mu.Unlock()
				w.Close()
				e.Close()
				return nil, false, fmt.Errorf("engine: open %s: WAL frame %d invalid (%v) and untruncatable: %w", dir, i, verr, terr)
			}
			break
		}
		e.idx.applyMuts(b.Muts)
		e.wlog.Append(b)
		e.version = b.Seq
	}
	e.vnow.Store(e.version)
	e.wal = w
	e.snapDir = dir
	if ok {
		e.markSaved(savedMark{version: e.version, regChanges: e.regChanges})
	}
	e.mu.Unlock()
	return e, ok, nil
}

// Restore replaces the engine's live state with a snapshot file's:
// instance, structure cache, and registry. The instance version moves
// strictly forward (never back to the persisted number), so handles and
// cursors acquired before the restore keep answering their own
// consistent pre-restore snapshot and prepared queries transparently
// re-resolve — the same semantics as any other mutation.
//
// On a WAL-attached engine (one from Open) the restore is made durable
// immediately: the restored state is checkpointed into the engine's
// snapshot directory and the WAL — whose frames describe the
// pre-restore lineage — is emptied with its sequence floor moved to the
// restored version, so a crash right after Restore reopens into the
// restored state, not into pre-restore frames replayed onto the wrong
// base.
func (e *Engine) Restore(path string) (RestoreInfo, error) {
	return e.loadSnapshot(path, false)
}

// Close waits for background rebuilds, closes the durable WAL, and
// releases the snapshot file mappings backing warm-started structures.
// Call it only when the engine and every handle or cursor obtained from
// it are no longer in use; mapped structures must not be probed
// afterwards.
func (e *Engine) Close() error {
	e.stop() // abandon in-flight background rebuilds at their next wave
	e.bg.Wait()
	var first error
	e.mu.Lock()
	if e.wal != nil {
		if err := e.wal.Close(); err != nil {
			first = err
		}
		e.wal = nil
	}
	e.mu.Unlock()
	e.smu.Lock()
	defer e.smu.Unlock()
	for _, m := range e.mappings {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.mappings = nil
	return first
}

// loadSnapshot maps a snapshot file and installs its contents. fresh
// distinguishes the boot-time warm start (adopt the persisted version)
// from a live restore (bump past both versions and count it).
func (e *Engine) loadSnapshot(path string, fresh bool) (RestoreInfo, error) {
	var info RestoreInfo
	m, err := snapshot.Open(path)
	if err != nil {
		return info, fmt.Errorf("engine: %w", err)
	}
	f := m.File()

	// Rebuild the instance on the heap: relations are mutable (sorted
	// and appended in place by later loads), so they must not alias the
	// read-only mapping. The structures below stay zero-copy — they are
	// immutable by construction.
	in := database.NewInstance()
	for _, rm := range f.Meta.Relations {
		col, err := f.ColI64(rm.Col)
		if err != nil {
			m.Close()
			return info, fmt.Errorf("engine: %w", err)
		}
		r, err := database.FromFlat(rm.Arity, append([]values.Value(nil), col...))
		if err != nil {
			m.Close()
			return info, fmt.Errorf("engine: %w", err)
		}
		in.SetRelation(rm.Name, r)
	}
	if f.Meta.Dict != nil {
		in.Dict = values.DictFromNames(f.DictNames())
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	version := f.Meta.EngineVersion
	if !fresh {
		if v := e.version; v >= version {
			version = v + 1
		} else {
			version++
		}
	}

	// Rehydrate structures before touching engine state, so a corrupt
	// snapshot leaves a live engine unchanged.
	type entry struct {
		key string
		h   *Handle
	}
	entries := make([]entry, 0, len(f.Meta.Structures))
	for i := range f.Meta.Structures {
		h, err := e.rehydrate(f, &f.Meta.Structures[i])
		if err != nil {
			m.Close()
			return info, fmt.Errorf("engine: snapshot structure %d: %w", i, err)
		}
		h.version = version
		entries = append(entries, entry{key: specKey(h.spec), h: h})
	}
	type reg struct {
		name string
		pq   *PreparedQuery
	}
	regs := make([]reg, 0, len(f.Meta.Registrations))
	for _, rm := range f.Meta.Registrations {
		if !validName(rm.Name) {
			m.Close()
			return info, fmt.Errorf("engine: snapshot registration has invalid name %q", rm.Name)
		}
		s := rm.Spec
		p, err := parseSpec(s)
		if err != nil {
			m.Close()
			return info, fmt.Errorf("engine: snapshot registration %q: %w", rm.Name, err)
		}
		regs = append(regs, reg{name: rm.Name, pq: &PreparedQuery{e: e, spec: s, p: p}})
	}

	e.in = in
	e.idx = newRelIndexes(in)
	e.version = version
	e.vnow.Store(version)
	// The log tail cannot express the wholesale replacement that just
	// happened: declare the new version its floor, so every structure
	// from before the load reports "cannot catch up" and rebuilds.
	e.wlog.Reset(version)
	e.cmu.Lock()
	e.cache.purge()
	// Insert in reverse so the first persisted structure ends up most
	// recently used (checkpoint order is deterministic, not LRU).
	for i := len(entries) - 1; i >= 0; i-- {
		e.cache.add(entries[i].key, entries[i].h)
	}
	e.cmu.Unlock()
	e.rmu.Lock()
	for _, pq := range e.registry {
		pq.evicted.Store(true)
	}
	clear(e.registry)
	for _, r := range regs {
		e.regGen++
		r.pq.id = PreparedID{Name: r.name, Gen: e.regGen}
		e.registry[r.name] = r.pq
	}
	e.regChanges++
	e.rmu.Unlock()
	e.smu.Lock()
	e.mappings = append(e.mappings, m)
	e.smu.Unlock()
	e.warmStructures.Store(uint64(len(entries)))
	if !fresh {
		if e.wal != nil {
			// The durable WAL holds pre-restore frames: replaying them
			// onto whatever snapshot the next Open loads would rebuild
			// the wrong lineage, and their seqs no longer mean anything
			// against the restored state. Persist the restored state as a
			// fresh checkpoint first (so the new lineage survives a
			// crash), then empty the WAL and align its sequence floor
			// with the restored version. The checkpoint happens before
			// the truncation: if it fails, the old frames stay and the
			// pre-restore lineage remains recoverable.
			if _, err := e.checkpointLocked(e.snapDir); err != nil {
				return info, fmt.Errorf("engine: restore: checkpointing restored state: %w", err)
			}
			if err := e.wal.Reset(version); err != nil {
				return info, fmt.Errorf("engine: restore: resetting WAL: %w", err)
			}
		}
		e.restores.Add(1)
	}
	info = RestoreInfo{
		Name: filepath.Base(path), Version: version, Tuples: in.Size(),
		Structures: len(entries), Registrations: len(regs),
	}
	return info, nil
}

// rehydrate reconstructs one persisted structure as a ready Handle. The
// spec is re-parsed and re-classified (query-level work, microseconds);
// only the data-level arrays come from the file, zero-copy.
func (e *Engine) rehydrate(f *snapshot.File, sm *snapshot.StructureMeta) (*Handle, error) {
	s := sm.Spec
	if len(s.FDs) > 0 || normShards(s.Shards) > 1 {
		return nil, fmt.Errorf("snapshot holds a structure for an unsupported spec (FDs or shards)")
	}
	p, err := parseSpec(s)
	if err != nil {
		return nil, err
	}
	h := &Handle{Query: p.q, spec: s, rels: queryRels(p.q)}
	h.Plan.Verdict, _ = p.directAccess()
	h.Plan.Tractable = sm.Tractable
	switch sm.Kind {
	case snapshot.KindLayeredLex:
		if p.sum {
			return nil, fmt.Errorf("layered-lex structure for a SUM spec")
		}
		h.Plan.Mode = ModeLayeredLex
		var lp *access.LexParts
		if lp, err = layeredPartsFromMeta(f, sm); err == nil {
			h.st, err = access.LexFromParts(p.q, lp)
		}
	case snapshot.KindSum:
		if !p.sum {
			return nil, fmt.Errorf("SUM structure for a lex spec")
		}
		h.Plan.Mode = ModeSum
		var rp *access.RowParts
		if rp, err = rowPartsFromMeta(f, sm, true); err == nil {
			h.st, err = access.SumFromParts(p.q, p.w, rp)
		}
	case snapshot.KindMaterialized:
		if sm.MatIsLex == p.sum {
			return nil, fmt.Errorf("materialized order kind disagrees with the spec")
		}
		h.Plan.Mode = ModeMaterialized
		var rp *access.RowParts
		if rp, err = rowPartsFromMeta(f, sm, p.sum); err == nil {
			h.st, err = access.MatFromParts(p.q, p.l, p.w, p.sum, rp)
		}
	default:
		return nil, fmt.Errorf("unknown structure kind %q", sm.Kind)
	}
	if err != nil {
		return nil, err
	}
	if h.Total() != sm.Total {
		return nil, fmt.Errorf("structure total %d, meta claims %d", h.Total(), sm.Total)
	}
	return h, nil
}

// structureMeta serializes one handle's structure into the builder,
// reporting ok=false for handles that cannot be persisted (sharded
// execution, FD closures, or shapes the flat encoding cannot carry).
// With rehydrate, it is the one place outside access and Kind.Build
// that tells the structure types apart: the kind tag is file format.
func structureMeta(b *snapshot.Builder, h *Handle) (snapshot.StructureMeta, bool) {
	sm := snapshot.StructureMeta{
		Spec:       h.spec,
		Tractable:  h.Plan.Tractable,
		Total:      h.Total(),
		NumVars:    h.Query.NumVars(),
		AnswersCol: snapshot.NoCol,
		WeightsCol: snapshot.NoCol,
	}
	// Exactly the specs rehydrate takes back: a spec that asked for
	// shards is out even when its plan fell back to one structure.
	if h.sh != nil || normShards(h.spec.Shards) > 1 || len(h.spec.FDs) > 0 {
		return sm, false
	}
	var rp *access.RowParts
	var ok bool
	switch st := h.st.(type) {
	case *access.Lex:
		lp, ok := st.Parts()
		if !ok {
			return sm, false
		}
		sm.Kind = snapshot.KindLayeredLex
		sm.Boolean, sm.BoolTrue = lp.Boolean, lp.BoolTrue
		sm.NumVars = lp.NumVars
		for _, entry := range lp.Completed.Entries {
			sm.Completed = append(sm.Completed, snapshot.OrderEntryMeta{
				Var: int(entry.Var), Desc: entry.Dir == order.Desc,
			})
		}
		for i := range lp.Layers {
			l := &lp.Layers[i]
			lm := snapshot.LayerMeta{
				Var: int(l.Var), Desc: l.Desc, Parent: l.Parent,
				ValsCol: b.I64Col(l.Vals), StartsCol: b.I64Col(l.Starts), ChildOfCol: b.I32Col(l.ChildOf),
				BucketStartCol: b.IntCol(l.BucketStart), BucketWeightCol: b.I64Col(l.BucketWeight),
			}
			for _, u := range l.KeyVars {
				lm.KeyVars = append(lm.KeyVars, int(u))
			}
			sm.Layers = append(sm.Layers, lm)
		}
		return sm, true
	case *access.Sum:
		sm.Kind = snapshot.KindSum
		rp, ok = st.Parts()
	case *access.Materialized:
		sm.Kind, sm.MatIsLex = snapshot.KindMaterialized, len(h.spec.SumBy) == 0
		rp, ok = st.Parts()
	}
	if !ok || (rp.NumVars == 0 && sm.Total > 0) {
		return sm, false // variable-free answers do not flat-encode
	}
	sm.NumVars = rp.NumVars
	if rp.NumVars > 0 {
		sm.Rows = len(rp.Flat) / rp.NumVars
	}
	sm.AnswersCol = b.I64Col(rp.Flat)
	if len(h.spec.SumBy) > 0 {
		sm.WeightsCol = b.F64Col(rp.Weights)
	}
	return sm, true
}

// layeredPartsFromMeta resolves a layered-lex structure's columns into
// access parts, all zero-copy views of the mapped file.
func layeredPartsFromMeta(f *snapshot.File, sm *snapshot.StructureMeta) (*access.LexParts, error) {
	lp := &access.LexParts{
		Total: sm.Total, NumVars: sm.NumVars,
		Boolean: sm.Boolean, BoolTrue: sm.BoolTrue,
	}
	for _, entry := range sm.Completed {
		dir := order.Asc
		if entry.Desc {
			dir = order.Desc
		}
		lp.Completed.Entries = append(lp.Completed.Entries, order.LexEntry{Var: cq.VarID(entry.Var), Dir: dir})
	}
	for i := range sm.Layers {
		lm := &sm.Layers[i]
		l := access.LexLayerParts{Var: cq.VarID(lm.Var), Desc: lm.Desc, Parent: lm.Parent}
		for _, u := range lm.KeyVars {
			l.KeyVars = append(l.KeyVars, cq.VarID(u))
		}
		var err error
		if l.Vals, err = f.ColI64(lm.ValsCol); err != nil {
			return nil, err
		}
		if l.Starts, err = f.ColI64(lm.StartsCol); err != nil {
			return nil, err
		}
		if l.ChildOf, err = f.ColI32(lm.ChildOfCol); err != nil {
			return nil, err
		}
		if l.BucketStart, err = f.ColInt(lm.BucketStartCol); err != nil {
			return nil, err
		}
		if l.BucketWeight, err = f.ColI64(lm.BucketWeightCol); err != nil {
			return nil, err
		}
		lp.Layers = append(lp.Layers, l)
	}
	return lp, nil
}

// rowPartsFromMeta resolves a SUM or materialized structure's columns
// (answers flat in rank order, optional weights).
func rowPartsFromMeta(f *snapshot.File, sm *snapshot.StructureMeta, wantWeights bool) (*access.RowParts, error) {
	flat, err := f.ColI64(sm.AnswersCol)
	if err != nil {
		return nil, err
	}
	p := &access.RowParts{NumVars: sm.NumVars, Flat: flat}
	if sm.WeightsCol != snapshot.NoCol {
		if p.Weights, err = f.ColF64(sm.WeightsCol); err != nil {
			return nil, err
		}
	} else if wantWeights {
		return nil, fmt.Errorf("weighted structure without a weights column")
	}
	return p, nil
}
