package engine

import (
	"path/filepath"
	"testing"

	"rankedaccess/internal/delta"
	"rankedaccess/internal/values"
)

// TestApplyBatchIntraBatchArityConflict: a batch whose mutations create
// the same new relation at two different arities must be rejected up
// front — before it reaches the durable WAL — not panic halfway through
// apply and poison every later replay.
func TestApplyBatchIntraBatchArityConflict(t *testing.T) {
	dir := t.TempDir()
	e, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []delta.Mutation{
		{Op: delta.OpInsert, Rel: "Z", Arity: 2, Rows: []values.Value{1, 2}},
		{Op: delta.OpInsert, Rel: "Z", Arity: 3, Rows: []values.Value{1, 2, 3}},
	}
	if _, err := e.ApplyBatch(bad); err == nil {
		t.Fatal("conflicting-arity batch was accepted")
	}
	if v := e.Version(); v != 0 {
		t.Fatalf("rejected batch moved the version to %d", v)
	}
	// A delete and an insert disagreeing about a relation the batch
	// itself introduces is the same inconsistency.
	mixed := []delta.Mutation{
		{Op: delta.OpDelete, Rel: "W", Arity: 3, Rows: []values.Value{1, 2, 3}},
		{Op: delta.OpInsert, Rel: "W", Arity: 2, Rows: []values.Value{1, 2}},
	}
	if _, err := e.ApplyBatch(mixed); err == nil {
		t.Fatal("batch disagreeing with itself about a new relation's arity was accepted")
	}
	// The write path still works, and nothing poisonous hit the WAL: a
	// reopen replays cleanly to the same state.
	if err := e.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	version := e.Version()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after rejected batches: %v", err)
	}
	defer e2.Close()
	if e2.Version() != version {
		t.Fatalf("reopened version = %d, want %d", e2.Version(), version)
	}
}

// TestOpenSalvagesPoisonedWALFrame: a WAL frame that passes its CRC but
// cannot validate against the state it replays onto (possible only via
// external corruption — the engine's own write path validates before
// appending) must not crash-loop Open. The good prefix is kept, the
// poisoned tail is truncated, and the write path works after recovery.
func TestOpenSalvagesPoisonedWALFrame(t *testing.T) {
	dir := t.TempDir()
	e, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-poison the log: an arity-3 insert into the arity-2 relation
	// R, framed and checksummed correctly, followed by one more frame
	// that is unreachable behind the poison.
	w, _, err := delta.OpenWAL(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	poison := delta.Batch{Seq: 2, Muts: []delta.Mutation{
		{Op: delta.OpInsert, Rel: "R", Arity: 3, Rows: []values.Value{7, 8, 9}},
	}}
	after := delta.Batch{Seq: 3, Muts: []delta.Mutation{
		{Op: delta.OpInsert, Rel: "R", Arity: 2, Rows: []values.Value{5, 6}},
	}}
	if err := w.Append(poison); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(after); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	e2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over a poisoned WAL: %v", err)
	}
	if e2.Version() != 1 {
		t.Fatalf("salvaged version = %d, want 1 (good prefix only)", e2.Version())
	}
	h, err := e2.Prepare(Spec{Query: "Q(x, y) :- R(x, y)", Order: "x, y"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 1 {
		t.Fatalf("salvaged |R| = %d, want 1", h.Total())
	}
	// The truncation is durable and the log appendable: write, reopen,
	// and the state is exactly prefix + new write.
	if err := e2.AddRows("R", [][]values.Value{{5, 6}}); err != nil {
		t.Fatalf("write after salvage: %v", err)
	}
	version := e2.Version()
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if e3.Version() != version {
		t.Fatalf("re-reopened version = %d, want %d", e3.Version(), version)
	}
	h3, err := e3.Prepare(Spec{Query: "Q(x, y) :- R(x, y)", Order: "x, y"})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainAll(t, h3); !eqValues(got, []values.Value{1, 2, 5, 6}) {
		t.Fatalf("salvaged state = %v, want [1 2 5 6]", got)
	}
}

// TestRestoreResetsWALLineage: a live Restore on a WAL-attached engine
// must not leave pre-restore frames in the durable log — they belong to
// the discarded lineage, and replaying them onto the next Open's
// snapshot would rebuild state the user explicitly restored away. The
// restore checkpoints the new lineage and empties the WAL, so reopening
// lands on restored state + post-restore writes exactly.
func TestRestoreResetsWALLineage(t *testing.T) {
	dir := t.TempDir()
	e, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	// This write exists only in the WAL — it is the pre-restore lineage
	// the restore below must discard durably, not just in memory.
	if err := e.AddRows("R", [][]values.Value{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Restore(filepath.Join(dir, info.Name)); err != nil {
		t.Fatal(err)
	}
	// The write path works after the restore (seq floor follows the
	// restored version), and the write is durable.
	if err := e.AddRows("R", [][]values.Value{{5, 6}}); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	spec := Spec{Query: "Q(x, y) :- R(x, y)", Order: "x, y"}
	h, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := drainAll(t, h)
	if !eqValues(want, []values.Value{1, 2, 5, 6}) {
		t.Fatalf("post-restore live state = %v, want [1 2 5 6]", want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, warm, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !warm {
		t.Fatal("reopen after restore was not warm")
	}
	h2, err := e2.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainAll(t, h2); !eqValues(got, want) {
		t.Fatalf("reopened state diverged from the restored lineage:\n got %v\nwant %v", got, want)
	}
}

// TestPrepareKeepsNewerCachedHandle: a slow catch-up finishing after a
// concurrent request already cached a newer-version handle must not
// overwrite it (the same guard spawnRebuild has always had).
func TestPrepareKeepsNewerCachedHandle(t *testing.T) {
	sh := shadow{}
	sh.insert("R", []values.Value{1, 2})
	sh.insert("S", []values.Value{2, 3})
	e := New(sh.instance(), Options{})
	s := Spec{Query: twoPath, Order: "x, y, z"}
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the race's end state: a newer-version handle is already
	// cached when this request's (older) flight completes.
	key := specKey(s)
	newer := *h
	newer.version = h.version + 5
	e.cmu.Lock()
	e.cache.add(key, &newer)
	e.cmu.Unlock()
	if _, err := e.Prepare(s); err != nil {
		t.Fatal(err)
	}
	e.cmu.Lock()
	cur := e.cache.get(key)
	e.cmu.Unlock()
	if cur.version != newer.version {
		t.Fatalf("cached handle version = %d, want %d (older flight overwrote the newer epoch)", cur.version, newer.version)
	}
}
