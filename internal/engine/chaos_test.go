package engine

import (
	"errors"
	"os"
	"strings"
	"testing"

	"rankedaccess/internal/delta"
	"rankedaccess/internal/faultfs"
	"rankedaccess/internal/values"
)

// Engine-level chaos: the durability layer runs over an injected
// filesystem (Options.FS), faults fire at chosen operations, and the
// assertions are end-to-end — acknowledged writes survive restart,
// failed writes leave no trace, answers always match a fresh-build
// oracle, and a broken WAL degrades writes without taking down reads.

// openChaosEngine opens a WAL-attached engine over a fresh injector.
func openChaosEngine(t *testing.T, dir string) (*faultfs.Injector, *Engine) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS())
	e, _, err := Open(dir, nil, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	return inj, e
}

// seedChaos loads the two-path instance every assertion probes.
func seedChaos(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.AddRows("R", [][]values.Value{{1, 5}, {1, 2}, {6, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("S", [][]values.Value{{5, 3}, {2, 5}}); err != nil {
		t.Fatal(err)
	}
}

// chaosAnswers drains the two-path query on a fresh handle.
func chaosAnswers(t *testing.T, e *Engine) []values.Value {
	t.Helper()
	h, err := e.Prepare(Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	return drainAll(t, h)
}

func TestChaosFailedWriteLeavesNoTraceAndRetries(t *testing.T) {
	dir := t.TempDir()
	inj, e := openChaosEngine(t, dir)
	seedChaos(t, e)
	version := e.Version()
	want := chaosAnswers(t, e)

	// The WAL append's fsync fails: the batch must be rejected whole —
	// version unchanged, instance unchanged, answers unchanged.
	inj.Inject(faultfs.Fault{Op: faultfs.OpSync, Nth: 1, Mode: faultfs.ModeFail})
	err := e.AddRows("S", [][]values.Value{{2, 9}})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("write under sync fault: err = %v, want injected", err)
	}
	if e.Version() != version {
		t.Fatalf("failed write moved version %d → %d", version, e.Version())
	}
	if got := chaosAnswers(t, e); !eqValues(got, want) {
		t.Fatalf("failed write changed answers:\n got %v\nwant %v", got, want)
	}
	if h := e.Health(); h.WALBroken {
		t.Fatal("rolled-back append reported the WAL broken")
	}

	// The fault was one-shot: the same write retried must succeed and
	// change answers (2 now also reaches 9).
	if err := e.AddRows("S", [][]values.Value{{2, 9}}); err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	if e.Version() != version+1 {
		t.Fatalf("retried write: version = %d, want %d", e.Version(), version+1)
	}
	after := chaosAnswers(t, e)
	if eqValues(after, want) {
		t.Fatal("retried write changed nothing")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on a clean filesystem: exactly the acknowledged state.
	e2, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Version() != version+1 {
		t.Fatalf("restart version = %d, want %d", e2.Version(), version+1)
	}
	if got := chaosAnswers(t, e2); !eqValues(got, after) {
		t.Fatalf("restart diverged from acknowledged state:\n got %v\nwant %v", got, after)
	}
}

func TestChaosBrokenWALDegradesWritesNotReads(t *testing.T) {
	dir := t.TempDir()
	inj, e := openChaosEngine(t, dir)
	seedChaos(t, e)
	want := chaosAnswers(t, e)
	version := e.Version()

	// Fail the append AND its rollback: the WAL cannot restore its
	// tail, so it must flip broken.
	inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 2, Mode: faultfs.ModeShortWrite})
	inj.Inject(faultfs.Fault{Op: faultfs.OpTruncate, Nth: 1, Mode: faultfs.ModeFail})
	if err := e.AddRows("S", [][]values.Value{{2, 9}}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("write under double fault: err = %v, want injected", err)
	}
	h := e.Health()
	if !h.WALBroken || !h.Degraded() {
		t.Fatalf("health after failed rollback = %+v, want broken/degraded", h)
	}
	// Writes fail fast now; reads keep answering the last good epoch.
	if err := e.AddRows("S", [][]values.Value{{2, 9}}); !errors.Is(err, delta.ErrWALBroken) {
		t.Fatalf("write on broken WAL: err = %v, want ErrWALBroken", err)
	}
	if got := chaosAnswers(t, e); !eqValues(got, want) {
		t.Fatalf("reads diverged on a broken WAL:\n got %v\nwant %v", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart salvages the torn tail: same answers, writes work again.
	e2, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Version() != version {
		t.Fatalf("restart version = %d, want %d", e2.Version(), version)
	}
	if got := chaosAnswers(t, e2); !eqValues(got, want) {
		t.Fatalf("restart diverged:\n got %v\nwant %v", got, want)
	}
	if h := e2.Health(); h.Degraded() {
		t.Fatalf("restarted engine still degraded: %+v", h)
	}
	if err := e2.AddRows("S", [][]values.Value{{2, 9}}); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
}

func TestChaosCheckpointAtomicUnderFaults(t *testing.T) {
	dir := t.TempDir()
	inj, e := openChaosEngine(t, dir)
	defer e.Close()
	seedChaos(t, e)
	want := chaosAnswers(t, e)

	// Fail the rename that publishes the snapshot: the checkpoint must
	// report the error and leave no canonical snapshot behind.
	inj.Inject(faultfs.Fault{Op: faultfs.OpRename, Nth: 1, Mode: faultfs.ModeFail})
	if _, err := e.Checkpoint(dir); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint under rename fault: err = %v, want injected", err)
	}
	if n := countSnapshots(t, dir); n != 0 {
		t.Fatalf("failed checkpoint left %d snapshot files", n)
	}

	// Retry succeeds; a warm restart must serve the same answers.
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	if info.Version != e.Version() {
		t.Fatalf("checkpoint version = %d, want %d", info.Version, e.Version())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, warm, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !warm {
		t.Fatal("reopen after checkpoint not warm")
	}
	if got := chaosAnswers(t, e2); !eqValues(got, want) {
		t.Fatalf("warm restart diverged:\n got %v\nwant %v", got, want)
	}
}

// countSnapshots counts canonical snapshot files in dir.
func countSnapshots(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".rka") && !strings.HasPrefix(ent.Name(), ".tmp-") {
			n++
		}
	}
	return n
}
