package engine

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/values"
)

// collectAll drains a cursor through NextN batches of the given size
// and returns the flattened head values.
func collectAll(t *testing.T, c *Cursor, batch int) []values.Value {
	t.Helper()
	var out []values.Value
	for {
		var n int
		var err error
		out, n, err = c.NextN(out, batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
	}
}

// referenceScan reads every answer through the handle's one-at-a-time
// Access path.
func referenceScan(t *testing.T, h *Handle) []values.Value {
	t.Helper()
	var out []values.Value
	for k := int64(0); k < h.Total(); k++ {
		var err error
		out, err = h.AppendTuple(out, k)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func eqValues(a, b []values.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCursorScanMatchesAccess(t *testing.T) {
	e := New(randomInstance(500, 40, 7), Options{})
	pq, err := e.Register("scan", Spec{Query: twoPath, Order: "x, y desc, z"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceScan(t, h)
	for _, batch := range []int{1, 3, 64, 100000} {
		cur, err := pq.Cursor()
		if err != nil {
			t.Fatal(err)
		}
		if got := collectAll(t, cur, batch); !eqValues(got, want) {
			t.Fatalf("NextN(batch=%d) scan diverges from Access scan", batch)
		}
	}

	// Next single-steps the same sequence.
	cur, err := pq.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	var got []values.Value
	for {
		var ok bool
		got, ok, err = cur.Next(got)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if !eqValues(got, want) {
		t.Fatal("Next scan diverges from Access scan")
	}
	// Exhausted cursor keeps reporting exhaustion, not an error.
	if _, ok, err := cur.Next(nil); ok || err != nil {
		t.Fatalf("Next past end = (%v, %v), want (false, nil)", ok, err)
	}

	// All range-over-func iteration agrees too, on a sub-window.
	width := int64(cur.Width())
	k0, k1 := h.Total()/3, 2*h.Total()/3
	var ranged []values.Value
	for row, err := range cur.All(k0, k1) {
		if err != nil {
			t.Fatal(err)
		}
		ranged = append(ranged, row...)
	}
	if !eqValues(ranged, want[k0*width:k1*width]) {
		t.Fatal("All(k0, k1) diverges from Access scan")
	}
}

func TestCursorSeek(t *testing.T) {
	e := New(smallInstance(), Options{})
	pq, err := e.Register("seek", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := pq.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	total := cur.Total() // 5
	if pos, err := cur.Seek(2, io.SeekStart); err != nil || pos != 2 {
		t.Fatalf("Seek(2, start) = (%d, %v)", pos, err)
	}
	if pos, err := cur.Seek(1, io.SeekCurrent); err != nil || pos != 3 {
		t.Fatalf("Seek(1, current) = (%d, %v)", pos, err)
	}
	if pos, err := cur.Seek(-1, io.SeekEnd); err != nil || pos != total-1 {
		t.Fatalf("Seek(-1, end) = (%d, %v)", pos, err)
	}
	if _, err := cur.Seek(total+1, io.SeekStart); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("Seek past end = %v, want ErrOutOfBound", err)
	}
	if got := cur.Pos(); got != total-1 {
		t.Fatalf("failed seek moved position to %d", got)
	}
	// Parking exactly at the end is allowed and reads as exhausted.
	if _, err := cur.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(nil); ok || err != nil {
		t.Fatalf("Next at end = (%v, %v), want (false, nil)", ok, err)
	}
}

// TestConcurrentCursors scans one prepared query from many goroutines,
// each with its own cursor and interleaved batch sizes; run with -race
// this is the cursor-concurrency guard.
func TestConcurrentCursors(t *testing.T) {
	e := New(randomInstance(400, 30, 11), Options{})
	pq, err := e.Register("conc", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceScan(t, h)

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cur, err := pq.Cursor()
			if err != nil {
				errc <- err
				return
			}
			var out []values.Value
			batch := 1 + g*7%13
			for {
				var n int
				out, n, err = cur.NextN(out, batch)
				if err != nil {
					errc <- err
					return
				}
				if n == 0 {
					break
				}
			}
			if !eqValues(out, want) {
				errc <- fmt.Errorf("goroutine %d scan diverged", g)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestCursorDrainsEpochAcrossMutation(t *testing.T) {
	e := New(smallInstance(), Options{})
	pq, err := e.Register("mut", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	// Reference stream of the pre-mutation epoch.
	ref, err := pq.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	want := collectAll(t, ref, 3)

	cur, err := pq.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	out, ok, err := cur.Next(nil)
	if !ok || err != nil {
		t.Fatalf("fresh cursor Next = (%v, %v)", ok, err)
	}

	// Mutations that join into new answers land mid-scan; the cursor is
	// pinned to its epoch and must stream the pre-mutation result set to
	// the end regardless.
	if err := e.AddRows("R", [][]values.Value{{9, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("S", [][]values.Value{{9, 9}}); err != nil {
		t.Fatal(err)
	}

	for {
		var alive bool
		out, alive, err = cur.Next(out)
		if err != nil {
			t.Fatalf("Next after mutation: %v", err)
		}
		if !alive {
			break
		}
	}
	if !eqValues(out, want) {
		t.Fatalf("drained scan diverged from the pre-mutation stream:\n got %v\nwant %v", out, want)
	}
	if _, err := cur.Seek(0, io.SeekStart); err != nil {
		t.Fatalf("Seek after mutation: %v", err)
	}
	reread := collectAll(t, cur, 4)
	if !eqValues(reread, want) {
		t.Fatalf("re-scan after mutation diverged:\n got %v\nwant %v", reread, want)
	}
	var allOut []values.Value
	for tuple, err := range cur.All(0, cur.Total()) {
		if err != nil {
			t.Fatalf("All after mutation: %v", err)
		}
		allOut = append(allOut, tuple...)
	}
	if !eqValues(allOut, want) {
		t.Fatalf("All after mutation diverged:\n got %v\nwant %v", allOut, want)
	}

	// A fresh cursor from the registration re-prepares and scans the new
	// epoch, which the joined row (9,9)-(9,9) grew by one answer.
	cur2, err := pq.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	if cur2.Total() != cur.Total()+1 {
		t.Fatalf("new-epoch cursor Total = %d, want %d", cur2.Total(), cur.Total()+1)
	}
	if _, ok, err := cur2.Next(nil); !ok || err != nil {
		t.Fatalf("fresh cursor after mutation = (%v, %v)", ok, err)
	}
}

// TestShardedCursorEquivalence checks that cursors over coordinator
// handles on loopback shard nodes (P ∈ {1, 4}) emit exactly the local
// stream.
func TestShardedCursorEquivalence(t *testing.T) {
	e := New(randomInstance(600, 25, 3), Options{})
	base, err := e.Register("unsharded", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	bh, err := base.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceScan(t, bh)

	for _, p := range []int{1, 4} {
		pq, err := coordinator(e, p).Register(fmt.Sprintf("sharded%d", p),
			Spec{Query: twoPath, Order: "x, y, z"})
		if err != nil {
			t.Fatal(err)
		}
		h, err := pq.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if h.Plan.Shards != p {
			t.Fatalf("P=%d: plan = %+v, want sharded", p, h.Plan)
		}
		cur, err := pq.Cursor()
		if err != nil {
			t.Fatal(err)
		}
		if got := collectAll(t, cur, 37); !eqValues(got, want) {
			t.Fatalf("P=%d cursor stream diverges from unsharded", p)
		}
		// Next, one row at a time from wherever a Seek lands — inside
		// the window a coordinator cursor holds, behind it, past it, up to
		// the end — reads the bytes AccessRange reads.
		rng := rand.New(rand.NewSource(int64(p)))
		total := h.Total()
		for i := 0; i < 60; i++ {
			k0 := rng.Int63n(total)
			if i%3 == 0 {
				k0 = max(cur.Pos()-rng.Int63n(2*cursorChunk), 0)
			}
			k1 := min(k0+rng.Int63n(3*cursorChunk), total)
			if _, err := cur.Seek(k0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			var got []values.Value
			for k := k0; k < k1; k++ {
				var ok bool
				if got, ok, err = cur.Next(got); err != nil || !ok {
					t.Fatalf("P=%d Next at %d of %d = (%v, %v)", p, k, total, ok, err)
				}
			}
			ranged, err := h.AccessRange(nil, k0, k1)
			if err != nil {
				t.Fatal(err)
			}
			if !eqValues(got, ranged) || !eqValues(got, want[k0*int64(h.Width()):k1*int64(h.Width())]) {
				t.Fatalf("P=%d Next over [%d, %d) after a Seek diverges from AccessRange", p, k0, k1)
			}
		}
	}
}

// TestRemoteCursorNextZeroAllocs: a steady-state cursor Next on a
// coordinator handle is served from the cursor's AccessRange window and
// must not allocate (the local half is the facade's
// TestCursorNextZeroAllocs).
func TestRemoteCursorNextZeroAllocs(t *testing.T) {
	if shardtest.RaceEnabled() {
		t.Skip("a window refill borrows a pooled probe; sync.Pool drops items at random under the race detector")
	}
	c := coordinator(New(randomInstance(1<<12, 1<<9, 9), Options{}), 4)
	h, err := c.Prepare(Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	cur := h.Cursor()
	dst := make([]values.Value, 0, 8)
	if n := testing.AllocsPerRun(2000, func() {
		var ok bool
		dst, ok, err = cur.Next(dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if _, err := cur.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("steady-state Cursor.Next allocates %v times per probe, want 0", n)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	e := New(smallInstance(), Options{})

	if _, err := e.Register("bad name!", Spec{Query: twoPath}); err == nil {
		t.Fatal("invalid name registered")
	}
	if _, err := e.Register("bad", Spec{Query: "not a query"}); err == nil {
		t.Fatal("unparseable spec registered")
	}
	if _, err := e.Prepared("nope"); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("Prepared(unknown) = %v, want ErrNotPrepared", err)
	}

	pq, err := e.Register("q1", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	if pq.ID().Name != "q1" {
		t.Fatalf("ID = %+v", pq.ID())
	}
	got, err := e.Prepared("q1")
	if err != nil || got != pq {
		t.Fatalf("Prepared(q1) = (%p, %v), want %p", got, err, pq)
	}

	// Same-version probes are registry hits with no re-parsing.
	before := e.Stats()
	h1, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("same-version Acquire returned different handles")
	}
	after := e.Stats()
	if after.RegistryHits != before.RegistryHits+2 {
		t.Fatalf("registry hits %d -> %d, want +2", before.RegistryHits, after.RegistryHits)
	}
	if after.Prepared != 1 {
		t.Fatalf("prepared = %d, want 1", after.Prepared)
	}

	// Mutation triggers exactly one automatic re-prepare.
	if err := e.AddRows("R", [][]values.Value{{6, 5}}); err != nil {
		t.Fatal(err)
	}
	h3, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("Acquire after mutation returned the stale handle")
	}
	if h3.Total() != h1.Total()+3 { // R(6,5) joins S(5,3), S(5,4), S(5,6)
		t.Fatalf("re-prepared total = %d, want %d", h3.Total(), h1.Total()+3)
	}
	if st := e.Stats(); st.Reprepares != after.Reprepares+1 {
		t.Fatalf("reprepares = %d, want %d", st.Reprepares, after.Reprepares+1)
	}

	// Listing reflects the current handle; re-registering bumps Gen.
	infos := e.ListPrepared()
	if len(infos) != 1 || infos[0].ID.Name != "q1" || infos[0].Total != h3.Total() {
		t.Fatalf("ListPrepared = %+v", infos)
	}
	pq2, err := e.Register("q1", Spec{Query: twoPath, Order: "z, y, x"})
	if err != nil {
		t.Fatal(err)
	}
	if pq2.ID().Gen <= pq.ID().Gen {
		t.Fatalf("re-registration gen %d not above %d", pq2.ID().Gen, pq.ID().Gen)
	}

	if !e.Evict("q1") {
		t.Fatal("Evict(q1) = false")
	}
	if e.Evict("q1") {
		t.Fatal("double Evict(q1) = true")
	}
	if _, err := e.Prepared("q1"); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("Prepared after evict = %v, want ErrNotPrepared", err)
	}
	if st := e.Stats(); st.Prepared != 0 {
		t.Fatalf("prepared after evict = %d, want 0", st.Prepared)
	}
}

// TestRegistryBound checks the registration cap: new names fail once
// MaxRegistered is reached, while re-registration, ID-checked
// eviction, and freeing a slot keep working.
func TestRegistryBound(t *testing.T) {
	e := New(smallInstance(), Options{})
	spec := Spec{Query: twoPath, Order: "x, y, z"}
	for i := 0; i < MaxRegistered; i++ {
		if _, err := e.Register(fmt.Sprintf("q%d", i), spec); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	if _, err := e.Register("overflow", spec); err == nil {
		t.Fatal("registration above MaxRegistered succeeded")
	}
	// Replacing an existing name is not growth and must still work.
	pq, err := e.Register("q0", Spec{Query: twoPath, Order: "y, x, z"})
	if err != nil {
		t.Fatalf("re-register at cap: %v", err)
	}
	// EvictID with a stale generation must not remove the current one.
	if e.EvictID(PreparedID{Name: "q0", Gen: pq.ID().Gen - 1}) {
		t.Fatal("EvictID removed a newer registration")
	}
	if !e.EvictID(pq.ID()) {
		t.Fatal("EvictID refused the current registration")
	}
	if _, err := e.Register("overflow", spec); err != nil {
		t.Fatalf("register after evict: %v", err)
	}
}

// TestRegistryConcurrentAcquireAndMutate hammers Acquire against
// mutations; every returned handle must answer consistently for some
// version (run with -race).
func TestRegistryConcurrentAcquireAndMutate(t *testing.T) {
	e := New(randomInstance(200, 20, 5), Options{})
	pq, err := e.Register("hammer", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := pq.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				if h.Total() > 0 {
					if _, err := h.Access(0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := e.AddRows("R", [][]values.Value{{int64(i), int64(i)}}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
