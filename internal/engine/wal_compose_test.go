package engine

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rankedaccess/internal/database"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/values"
)

// TestRebootSeededKeepsWrites: a fresh snapshot directory seeded with
// the same instance on every boot (serve's -data) keeps the writes
// acknowledged before the first checkpoint, because the WAL replays
// them over the seed.
func TestRebootSeededKeepsWrites(t *testing.T) {
	data, dir := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(data, "R.tsv"), []byte("1\t2\n3\t4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boot := func() *Engine {
		in := database.NewInstance()
		if _, err := in.ReadDir(data); err != nil {
			t.Fatal(err)
		}
		e, warm, err := Open(dir, in, Options{})
		if err != nil || warm {
			t.Fatalf("Open = warm %v, %v; want a cold seeded boot", warm, err)
		}
		return e
	}
	e := boot()
	if err := e.DeleteRows("R", [][]values.Value{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // no checkpoint
		t.Fatal(err)
	}
	e = boot()
	defer e.Close()
	if got := e.in.Relation("R").Data(); !slices.Equal(got, []values.Value{1, 2}) || e.Version() != 1 {
		t.Fatalf("after the reboot R = %v at version %d, want [1 2] at version 1", got, e.Version())
	}
}

// TestOpenReplaysOldResetFrames: an OpReset frame, as an earlier engine
// logged one between row-level frames, replays as nothing. The WAL
// opens to the instance and answers the same WAL without that frame
// gives, no frame is discarded, and a structure checkpointed before the
// frame catches up across it by overlay.
func TestOpenReplaysOldResetFrames(t *testing.T) {
	spec := Spec{Query: twoPath, Order: "x, y, z"}
	insert := delta.Batch{Seq: 1, Muts: []delta.Mutation{{Op: delta.OpInsert, Rel: "R", Arity: 2, Rows: []values.Value{7, 2}}}}
	reset := delta.Batch{Seq: 2, Muts: []delta.Mutation{{Op: delta.OpReset, Rel: "R"}}}
	del := delta.Batch{Seq: 3, Muts: []delta.Mutation{{Op: delta.OpDelete, Rel: "R", Arity: 2, Rows: []values.Value{1, 2}}}}
	open := func(frames ...delta.Batch) (*Engine, string) {
		dir := t.TempDir()
		e := New(smallInstance(), Options{})
		if _, err := e.Prepare(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		e.Close()
		path := filepath.Join(dir, WALFileName)
		w, _, err := delta.OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range frames {
			if err := w.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		e, warm, err := Open(dir, nil, Options{})
		if err != nil || !warm {
			t.Fatalf("Open = warm %v, %v", warm, err)
		}
		t.Cleanup(func() { e.Close() })
		return e, path
	}
	withReset, path := open(insert, reset, del)
	without, _ := open(insert, del)
	for _, name := range []string{"R", "S"} {
		if got, want := withReset.in.Relation(name).Data(), without.in.Relation(name).Data(); !slices.Equal(got, want) {
			t.Fatalf("%s replayed with the reset frame = %v, without it %v", name, got, want)
		}
	}
	if withReset.Version() != 3 || without.Version() != 3 {
		t.Fatalf("versions %d and %d, want 3", withReset.Version(), without.Version())
	}
	h, err := withReset.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := withReset.Stats(); st.Misses != 0 || st.DeltaEpochs != 1 || st.DeltaRebuilds != 0 {
		t.Fatalf("catch-up across the reset frame: %+v, want one overlay epoch and no build", st)
	}
	fresh, err := New(withReset.in.Clone(), Options{}).Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := drainAll(t, h), drainAll(t, fresh); !eqValues(got, want) {
		t.Fatalf("answers after the reset frame = %v, a fresh build gives %v", got, want)
	}
	if err := withReset.Close(); err != nil {
		t.Fatal(err)
	}
	w, frames, err := delta.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if len(frames) != 3 {
		t.Fatalf("the WAL holds %d frames after the replay, want all 3", len(frames))
	}
}

// TestApplyBatchRefusesReset: nothing new writes OpReset, so a live
// batch carrying one is refused whole, before the WAL sees it.
func TestApplyBatchRefusesReset(t *testing.T) {
	e, _, err := Open(t.TempDir(), smallInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.ApplyBatch([]delta.Mutation{
		{Op: delta.OpInsert, Rel: "R", Arity: 2, Rows: []values.Value{9, 9}},
		{Op: delta.OpReset, Rel: "S"},
	})
	if err == nil || e.Version() != 0 || e.in.Relation("R").Len() != 3 {
		t.Fatalf("ApplyBatch with a reset = %v; version %d, R has %d rows", err, e.Version(), e.in.Relation("R").Len())
	}
}

// TestOpenReplaysWALWithoutSnapshot: acknowledged writes are durable
// from the moment ApplyBatch returns — a reopen with no checkpoint at
// all reconstructs the instance purely from WAL replay.
func TestOpenReplaysWALWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	e, warm, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("fresh dir reported warm")
	}
	if err := e.AddRows("R", [][]values.Value{{1, 5}, {1, 2}, {6, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("S", [][]values.Value{{5, 3}, {2, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteRows("R", [][]values.Value{{6, 2}}); err != nil {
		t.Fatal(err)
	}
	version := e.Version()
	h, err := e.Prepare(Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	want := drainAll(t, h)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, warm2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if warm2 {
		t.Fatal("no snapshot was written, reopen reported warm")
	}
	if e2.Version() != version {
		t.Fatalf("replayed version = %d, want %d", e2.Version(), version)
	}
	h2, err := e2.Prepare(Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainAll(t, h2); !eqValues(got, want) {
		t.Fatalf("replayed answers diverged:\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointTruncatesWALThenReplays: checkpoint = snapshot + WAL
// truncation; a reopen warm-starts from the snapshot and replays only
// the batches written after it.
func TestCheckpointTruncatesWALThenReplays(t *testing.T) {
	dir := t.TempDir()
	e, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{1, 5}, {1, 2}, {6, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("S", [][]values.Value{{5, 3}, {5, 4}, {2, 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("q", Spec{Query: twoPath, Order: "x, y, z"}); err != nil {
		t.Fatal(err)
	}
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != e.Version() {
		t.Fatalf("checkpoint at version %d, engine at %d", info.Version, e.Version())
	}
	// The checkpoint absorbed every logged batch: the WAL is back to its
	// 8-byte magic header.
	if fi, err := os.Stat(filepath.Join(dir, WALFileName)); err != nil || fi.Size() != 8 {
		t.Fatalf("WAL after checkpoint: size %d, err %v; want 8-byte header", fi.Size(), err)
	}

	// Post-checkpoint writes live only in the WAL.
	if err := e.AddRows("S", [][]values.Value{{2, 9}}); err != nil {
		t.Fatal(err)
	}
	version := e.Version()
	h, err := e.Prepare(Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	want := drainAll(t, h)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, warm, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !warm {
		t.Fatal("reopen after checkpoint was not warm")
	}
	if e2.Version() != version {
		t.Fatalf("reopened version = %d, want %d (snapshot %d + replay)", e2.Version(), version, info.Version)
	}
	// The rehydrated registration answers over snapshot + replayed rows.
	pq, err := e2.Prepared("q")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got := drainAll(t, h2); !eqValues(got, want) {
		t.Fatalf("warm start + replay diverged:\n got %v\nwant %v", got, want)
	}
}

// TestCrashRecoveryWithoutClose: a process that never got to Close
// (simulated by abandoning the engine with its WAL still open) loses
// nothing — every acknowledged batch was fsynced on append.
func TestCrashRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	e, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("S", [][]values.Value{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	version := e.Version()
	// No Close: the "crash".

	e2, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Version() != version {
		t.Fatalf("recovered version = %d, want %d", e2.Version(), version)
	}
	h, err := e2.Prepare(Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 1 {
		t.Fatalf("recovered |Q(I)| = %d, want 1", h.Total())
	}
}
