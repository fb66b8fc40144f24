package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"
)

// waitingCtx reports, by closing waiting, the first time its Done is
// asked for — in the coalescer, the moment a joiner starts to wait.
type waitingCtx struct {
	context.Context
	waiting chan struct{}
	once    sync.Once
}

func newWaitingCtx(parent context.Context) *waitingCtx {
	return &waitingCtx{Context: parent, waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// wait returns once the joiner waits. A coalescer that never asks for
// Done — one that ignores a joiner's context — is given a second to
// reach its wait instead, so that it fails the test rather than hangs it.
func (c *waitingCtx) wait() {
	select {
	case <-c.waiting:
	case <-time.After(time.Second):
	}
}

func body(s string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(s), nil }
}

// mustNotFill fails a test whose call should have shared a flight or
// hit the cache instead of filling.
func mustNotFill(t *testing.T) func() ([]byte, error) {
	return func() ([]byte, error) {
		t.Error("fill ran; want a shared flight or a cache hit")
		return nil, errors.New("unexpected fill")
	}
}

// cached reports whether key has a cached body, without touching recency.
func (c *coalescer) cached(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key] != nil
}

// TestCoalesceLRUBound: the cache never holds more than 256 bodies, a
// full cache evicts the least recently used body first, and a hit makes
// a body the most recently used.
func TestCoalesceLRUBound(t *testing.T) {
	ctx := context.Background()
	c := newCoalescer()
	key := func(i int) string { return "k" + strconv.Itoa(i) }
	for i := 0; i < coalesceCache; i++ {
		if _, err := c.do(ctx, []byte(key(i)), body(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	// k0 is the oldest; a hit refreshes it, so k1 goes first.
	if b, err := c.do(ctx, []byte(key(0)), mustNotFill(t)); err != nil || string(b) != key(0) {
		t.Fatalf("hit on k0 = (%q, %v)", b, err)
	}
	for i := coalesceCache; i < coalesceCache+10; i++ {
		if _, err := c.do(ctx, []byte(key(i)), body(key(i))); err != nil {
			t.Fatal(err)
		}
		if n := len(c.entries); n != coalesceCache {
			t.Fatalf("%d entries after %d inserts, want %d", n, i+1, coalesceCache)
		}
	}
	if !c.cached(key(0)) {
		t.Fatal("k0 evicted although a hit made it recent")
	}
	for i := 1; i <= 10; i++ {
		if c.cached(key(i)) {
			t.Fatalf("k%d still cached; the 10 least recent (k1..k10) should be gone", i)
		}
	}
	for i := 11; i < coalesceCache+10; i++ {
		if !c.cached(key(i)) {
			t.Fatalf("k%d evicted before an older entry", i)
		}
	}
	// The list and the map agree: walking from the most recent entry
	// meets every cached key once, newest first.
	var walked []string
	for e := c.lru.next; e != &c.lru; e = e.next {
		walked = append(walked, e.key)
	}
	if len(walked) != coalesceCache || walked[0] != key(coalesceCache+9) || walked[len(walked)-1] != key(11) {
		t.Fatalf("LRU list has %d entries from %q to %q", len(walked), walked[0], walked[len(walked)-1])
	}
	if hits, misses := c.hits.Load(), c.misses.Load(); hits != 1 || misses != coalesceCache+10 {
		t.Fatalf("hits/misses = %d/%d, want 1/%d", hits, misses, coalesceCache+10)
	}
}

// TestCoalesceFailedFillSharedNotCached: a failed fill's error reaches
// the request that joined it, and the next request fills again.
func TestCoalesceFailedFillSharedNotCached(t *testing.T) {
	c := newCoalescer()
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.do(context.Background(), []byte("k"), func() ([]byte, error) {
			close(started)
			<-release
			return nil, boom
		})
		leader <- err
	}()
	<-started
	jctx := newWaitingCtx(context.Background())
	joiner := make(chan error, 1)
	go func() {
		_, err := c.do(jctx, []byte("k"), mustNotFill(t))
		joiner <- err
	}()
	jctx.wait()
	close(release)
	if err := <-leader; !errors.Is(err, boom) {
		t.Fatalf("leader got %v, want boom", err)
	}
	if err := <-joiner; !errors.Is(err, boom) {
		t.Fatalf("joiner got %v, want the leader's boom", err)
	}
	if c.cached("k") {
		t.Fatal("a failed fill was cached")
	}
	if b, err := c.do(context.Background(), []byte("k"), body("ok")); err != nil || string(b) != "ok" {
		t.Fatalf("after a failure = (%q, %v), want a fresh fill", b, err)
	}
}

// TestCoalesceJoinerOutlivesLeaderCancel: a leader whose caller hangs
// up fails its fill with its own context's error; a joiner whose
// caller is still there fills the key itself instead of reporting the
// leader's cancellation (a 503 for a healthy client).
func TestCoalesceJoinerOutlivesLeaderCancel(t *testing.T) {
	c := newCoalescer()
	lctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.do(lctx, []byte("k"), func() ([]byte, error) {
			close(started)
			<-lctx.Done()
			return nil, lctx.Err()
		})
		leader <- err
	}()
	<-started
	jctx := newWaitingCtx(context.Background())
	type result struct {
		b   []byte
		err error
	}
	joiner := make(chan result, 1)
	go func() {
		b, err := c.do(jctx, []byte("k"), body("joiner's"))
		joiner <- result{b, err}
	}()
	jctx.wait()
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	if r := <-joiner; r.err != nil || string(r.b) != "joiner's" {
		t.Fatalf("joiner got (%q, %v), want its own fill", r.b, r.err)
	}
	if !c.cached("k") {
		t.Fatal("the joiner's fill was not cached")
	}
}

// TestCoalesceJoinerHonoursOwnContext: a joiner whose caller gives up
// returns at once with its own context's error, while the flight it
// joined runs on for the others.
func TestCoalesceJoinerHonoursOwnContext(t *testing.T) {
	c := newCoalescer()
	release := make(chan struct{})
	started := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.do(context.Background(), []byte("k"), func() ([]byte, error) {
			close(started)
			<-release
			return []byte("ok"), nil
		})
		leader <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	jctx := newWaitingCtx(ctx)
	joiner := make(chan error, 1)
	go func() {
		_, err := c.do(jctx, []byte("k"), mustNotFill(t))
		joiner <- err
	}()
	jctx.wait()
	cancel()
	select {
	case err := <-joiner:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("joiner got %v, want its own context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("joiner still waiting on the leader 5 s after its own context ended")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader got %v", err)
	}
	if !c.cached("k") {
		t.Fatal("the leader's body was not cached")
	}
}
