package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rankedaccess/internal/database"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// drainAll reads a handle's full answer list through AccessRange.
func drainAll(t testing.TB, h *Handle) []values.Value {
	t.Helper()
	out, err := h.AccessRange(nil, 0, h.Total())
	if err != nil {
		t.Fatalf("drain %d answers: %v", h.Total(), err)
	}
	return out
}

// shadow is the test's reference model of the instance: every relation
// as a plain slice of rows, mutated in lockstep with the engine.
type shadow map[string][][]values.Value

func (s shadow) instance() *database.Instance {
	in := database.NewInstance()
	for rel, rows := range s {
		for _, row := range rows {
			in.AddRow(rel, row...)
		}
	}
	return in
}

func (s shadow) insert(rel string, row []values.Value) {
	s[rel] = append(s[rel], append([]values.Value(nil), row...))
}

func (s shadow) delete(rel string, row []values.Value) {
	kept := s[rel][:0]
	for _, r := range s[rel] {
		same := len(r) == len(row)
		for i := range r {
			if !same || r[i] != row[i] {
				same = false
				break
			}
		}
		if !same {
			kept = append(kept, r)
		}
	}
	s[rel] = kept
}

// TestInterleavedReadWriteEquivalence is the MVCC correctness oracle:
// random insert/delete batches interleave with reads, and after every
// batch the delta-merged answer stream of each registered query must be
// byte-identical to a from-scratch preprocess over the same data. Run
// with -race it also hammers the concurrent advance/publish paths.
func TestInterleavedReadWriteEquivalence(t *testing.T) {
	specs := []Spec{
		{Query: twoPath, Order: "x, y, z"},                                // layered-lex
		{Query: twoPath, SumBy: []string{"x", "y", "z"}},                  // sum
		{Query: "Q(x, z) :- R(x, y), S(y, z)", Order: "z, x"},             // materialized lex
		{Query: "Q(x, z) :- R(x, y), S(y, z)", SumBy: []string{"x", "z"}}, // materialized sum
	}
	const dom = 12
	rng := rand.New(rand.NewSource(99))
	sh := shadow{}
	for i := 0; i < 40; i++ {
		sh.insert("R", []values.Value{rng.Int63n(dom), rng.Int63n(dom)})
		sh.insert("S", []values.Value{rng.Int63n(dom), rng.Int63n(dom)})
	}
	e := New(sh.instance(), Options{})
	pqs := make([]*PreparedQuery, len(specs))
	for i, s := range specs {
		pq, err := e.Register(fmt.Sprintf("q%d", i), s)
		if err != nil {
			t.Fatal(err)
		}
		pqs[i] = pq
	}

	for step := 0; step < 60; step++ {
		rel := "R"
		if rng.Intn(2) == 0 {
			rel = "S"
		}
		if rng.Intn(3) > 0 || len(sh[rel]) == 0 {
			n := 1 + rng.Intn(3)
			rows := make([][]values.Value, n)
			for i := range rows {
				rows[i] = []values.Value{rng.Int63n(dom), rng.Int63n(dom)}
				sh.insert(rel, rows[i])
			}
			if err := e.AddRows(rel, rows); err != nil {
				t.Fatal(err)
			}
		} else {
			row := sh[rel][rng.Intn(len(sh[rel]))]
			row = append([]values.Value(nil), row...)
			sh.delete(rel, row)
			if err := e.DeleteRows(rel, [][]values.Value{row}); err != nil {
				t.Fatal(err)
			}
		}

		// From-scratch oracle over a fresh copy of the data.
		ref := New(sh.instance(), Options{})
		for i, s := range specs {
			rh, err := ref.Prepare(s)
			if err != nil {
				t.Fatal(err)
			}
			want := drainAll(t, rh)
			lh, err := pqs[i].Acquire()
			if err != nil {
				t.Fatal(err)
			}
			if lh.Version() != e.Version() {
				t.Fatalf("step %d spec %d: handle at version %d, engine at %d", step, i, lh.Version(), e.Version())
			}
			got := drainAll(t, lh)
			if !eqValues(got, want) {
				t.Fatalf("step %d spec %d (%d edits): delta-merged stream diverged\n got %v\nwant %v",
					step, i, lh.DeltaEdits(), got, want)
			}
		}
	}
	st := e.Stats()
	if st.DeltaEpochs == 0 {
		t.Fatalf("no overlay epoch was ever published: %+v", st)
	}
	e.Quiesce()
}

// TestSingleInsertPublishesEpochWithoutRebuild is the acceptance bound:
// one row into n=65536 publishes a readable new epoch as a delta
// overlay — no full re-preprocess, no cache miss.
func TestSingleInsertPublishesEpochWithoutRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, in := workload.TwoPath(rng, 65536, 8192, 0.3)
	e := New(in, Options{})
	pq, err := e.Register("big", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if before.Misses != 1 {
		t.Fatalf("stats before write = %+v, want exactly the initial build", before)
	}

	if err := e.AddRows("R", [][]values.Value{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	h1, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if h1.Version() != e.Version() {
		t.Fatalf("post-write handle at version %d, engine at %d", h1.Version(), e.Version())
	}
	after := e.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("single insert forced a full rebuild: %+v", after)
	}
	if after.DeltaEpochs != 1 || after.DeltaRebuilds != 0 {
		t.Fatalf("single insert did not publish an overlay epoch: %+v", after)
	}
	if h1.Total() < h0.Total() {
		t.Fatalf("total shrank: %d -> %d", h0.Total(), h1.Total())
	}
	// The new epoch is readable end to end.
	if _, err := h1.AccessRange(nil, 0, min64(h1.Total(), 64)); err != nil {
		t.Fatal(err)
	}
	e.Quiesce()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestCursorDrainsAcrossBackgroundSwap pins the drain guarantee around
// the background re-preprocessor: a cursor opened on an overlay epoch
// keeps streaming that epoch's exact result set even after the rebuilt
// structure swaps into the cache.
func TestCursorDrainsAcrossBackgroundSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	_, in := workload.TwoPath(rng, 2048, 256, 0.3)
	// DeltaSoft 1: any overlay with more than one edit schedules a
	// background rebuild immediately.
	e := New(in, Options{DeltaSoft: 1})
	pq, err := e.Register("swap", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Acquire(); err != nil {
		t.Fatal(err)
	}
	// A write that joins into several new answers -> overlay epoch past
	// the soft limit -> rebuild scheduled.
	if err := e.AddRows("R", [][]values.Value{{70001, 1}, {70002, 1}, {70003, 1}}); err != nil {
		t.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if h.DeltaEdits() == 0 {
		t.Fatalf("expected an overlay epoch, handle has no edits (stats %+v)", e.Stats())
	}
	want := drainAll(t, h) // the overlay epoch's full stream

	cur, err := pq.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	var got []values.Value
	var ok bool
	got, ok, err = cur.Next(got) // start the scan pre-swap
	if !ok || err != nil {
		t.Fatalf("first Next = (%v, %v)", ok, err)
	}
	e.Quiesce() // background rebuild has swapped in (or was a no-op)
	for {
		got, ok, err = cur.Next(got)
		if err != nil {
			t.Fatalf("Next after swap: %v", err)
		}
		if !ok {
			break
		}
	}
	if !eqValues(got, want) {
		t.Fatalf("cursor stream changed across background swap:\n got %v\nwant %v", got, want)
	}
	// After the swap, the cache serves the rebuilt structure — same
	// answers, no overlay — and so does the registration (see
	// TestRegistrationFollowsBackgroundRebuild).
	st := e.Stats()
	if st.BGRebuilds == 0 {
		t.Fatalf("background rebuild never swapped in: %+v", st)
	}
	h2, err := e.Prepare(Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	if h2.DeltaEdits() != 0 {
		t.Fatalf("post-swap handle still carries %d overlay edits", h2.DeltaEdits())
	}
	if post := drainAll(t, h2); !eqValues(post, want) {
		t.Fatalf("rebuilt structure diverged from overlay epoch:\n got %v\nwant %v", post, want)
	}
}

// TestRegistrationFollowsBackgroundRebuild: once a background rebuild
// swaps in, a by-name Acquire at the same version returns the rebuilt
// structure, not the overlaid handle the catch-up published — the
// registration follows the cache without waiting for another write. A
// registration of another spec keeps its own handle.
func TestRegistrationFollowsBackgroundRebuild(t *testing.T) {
	_, in := workload.TwoPath(rand.New(rand.NewSource(17)), 2048, 256, 0.3)
	e := New(in, Options{DeltaSoft: 1})
	pq, err := e.Register("swap", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.Register("other", Spec{Query: twoPath, Order: "y, x, z"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{70001, 1}, {70002, 1}, {70003, 1}}); err != nil {
		t.Fatal(err)
	}
	overlaid, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if overlaid.DeltaEdits() == 0 {
		t.Fatalf("the catch-up published no overlay (stats %+v)", e.Stats())
	}
	want := drainAll(t, overlaid)
	e.Quiesce()
	if st := e.Stats(); st.BGRebuilds != 1 {
		t.Fatalf("%d background rebuilds swapped in, want 1", st.BGRebuilds)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if h == overlaid || h.DeltaEdits() != 0 {
		t.Fatalf("by-name Acquire after the rebuild returned a handle with %d overlay edits (the overlaid one: %v)", h.DeltaEdits(), h == overlaid)
	}
	if got := drainAll(t, h); !eqValues(got, want) {
		t.Fatalf("rebuilt registration diverged from the overlay epoch:\n got %v\nwant %v", got, want)
	}
	// The other spec was never caught up: its stale handle is left to
	// its own next Acquire.
	if cur, fresh := other.Current(); fresh || cur.DeltaEdits() != 0 {
		t.Fatalf("the other registration's handle: fresh %v, %d edits; want its untouched first build", fresh, cur.DeltaEdits())
	}
}

// TestPublishKeepsNewerHandle: a re-prepare's publish keeps the handle a
// background rebuild published meanwhile when that one's version is the
// same as its own or newer, and replaces an older one; an evicted
// registration publishes nothing.
func TestPublishKeepsNewerHandle(t *testing.T) {
	for _, c := range []struct {
		published uint64
		keep      bool
	}{{4, false}, {5, true}, {6, true}} {
		pq := &PreparedQuery{}
		cur := &preparedHandle{h: &Handle{}, version: c.published}
		pq.cur.Store(cur)
		next := &preparedHandle{h: &Handle{}, version: 5}
		want := next
		if c.keep {
			want = cur
		}
		if got := pq.publish(next); got != want || pq.cur.Load() != want {
			t.Fatalf("publishing version 5 over version %d: returned its own handle %v, left it published %v; want %v",
				c.published, got == next, pq.cur.Load() == next, !c.keep)
		}
	}
	pq := &PreparedQuery{}
	pq.evicted.Store(true)
	next := &preparedHandle{h: &Handle{}, version: 5}
	if got := pq.publish(next); got != next || pq.cur.Load() != nil {
		t.Fatal("an evicted registration published its re-prepare")
	}
}

// TestRegistrationFollowsRebuildsUnderLoad: readers re-prepare a
// registration while writes schedule background rebuilds that publish
// to it, from their own goroutines. Once the writes stop and the last
// rebuild swapped in, the registration holds it whatever order the
// re-prepares and the publications ran in.
func TestRegistrationFollowsRebuildsUnderLoad(t *testing.T) {
	_, in := workload.TwoPath(rand.New(rand.NewSource(19)), 1024, 128, 0.3)
	e := New(in, Options{DeltaSoft: 1})
	defer e.Close()
	pq, err := e.Register("hot", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pq.Acquire(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range values.Value(20) {
		if err := e.AddRows("R", [][]values.Value{{80000 + i, 1}, {80100 + i, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := pq.Acquire(); err != nil { // the last write's catch-up
		t.Fatal(err)
	}
	e.Quiesce()
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if h.DeltaEdits() != 0 {
		t.Fatalf("after the last rebuild the registration serves %d overlay edits (stats %+v)", h.DeltaEdits(), e.Stats())
	}
}

// TestUntouchedRelationsSkipInvalidation: a write to relation T must
// not invalidate (or rebuild, or even overlay) prepared queries that
// never mention T.
func TestUntouchedRelationsSkipInvalidation(t *testing.T) {
	in := smallInstance()
	in.AddRow("T", 1, 2)
	in.AddRow("T", 3, 4)
	e := New(in, Options{})
	pq, err := e.Register("rs", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	base := e.Stats()

	if err := e.AddRows("T", [][]values.Value{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	h1, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses != base.Misses || st.DeltaRebuilds != base.DeltaRebuilds {
		t.Fatalf("write to unreferenced T rebuilt the query: %+v", st)
	}
	if st.DeltaSkips != base.DeltaSkips+1 {
		t.Fatalf("expected a republish skip, stats = %+v", st)
	}
	if h1.DeltaEdits() != 0 {
		t.Fatalf("skip republish grew an overlay: %d edits", h1.DeltaEdits())
	}
	if h1.Version() != e.Version() || h1.Total() != h0.Total() {
		t.Fatalf("republished handle = version %d total %d, want version %d total %d",
			h1.Version(), h1.Total(), e.Version(), h0.Total())
	}
}
