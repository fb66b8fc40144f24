// coalesce.go implements request coalescing for the hot probe
// endpoints: identical (prepared-query, window) requests in flight at
// once share one probe + encode, and recently produced bodies are
// served straight from a small cache.
//
// Correctness hinges on the key: it embeds the registration generation
// AND the handle's epoch version, so a cached body can never outlive
// its epoch — a write publishes a new version, new requests form new
// keys, and entries for dead epochs simply age out of the LRU. No
// invalidation hook is needed, which is the point of keying by
// immutable epochs instead of mutable names.
//
// Every request costs the coalescer O(1) under its lock, hit or miss: a
// key is appended into the caller's stack buffer and looked up without
// a copy, the LRU is a list threaded through the entries (a hit moves
// its entry to the front, a full cache recycles the entry at the back
// for the newcomer), and the key becomes a string once, when a miss
// starts a flight. That matters because uniform-rank point reads miss
// every time: a miss that scanned the entries for the oldest one cost
// more than the probe and its encoding together.
package serve

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/trace"
)

// coalesceCache bounds cached response bodies. Entries are hot ranked
// windows (a leaderboard page, a dashboard's top-k); 256 bodies of a
// few KB each is plenty and bounded.
const coalesceCache = 256

type coalescer struct {
	mu      sync.Mutex
	flights map[string]*coalFlight
	entries map[string]*coalEntry
	lru     coalEntry // sentinel: lru.next is the most recent, lru.prev the least

	hits   atomic.Uint64
	misses atomic.Uint64
}

// coalFlight is one in-progress fill; joiners block on done and share
// the leader's result.
type coalFlight struct {
	// done is made by the first joiner and closed by the leader, both
	// under mu: a miss nobody joins (every uniform-rank read) makes none.
	done chan struct{}
	body []byte
	err  error
	// abandoned: the fill failed after the leader's own context ended,
	// so the failure may be the leader's, not the key's.
	abandoned bool
}

// coalEntry is one cached body, linked into the LRU list.
type coalEntry struct {
	key        string
	body       []byte
	prev, next *coalEntry
}

func newCoalescer() *coalescer {
	c := &coalescer{
		flights: make(map[string]*coalFlight),
		entries: make(map[string]*coalEntry),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// do returns the encoded response body for key, invoking fill at most
// once across all concurrent identical requests. Successful bodies are
// cached (LRU) until evicted; errors are shared with the in-flight
// joiners but never cached, so a transient failure does not poison the
// key. A joiner stops waiting when its own ctx ends, and leads a new
// fill when the flight it joined failed because its leader went away.
func (c *coalescer) do(ctx context.Context, key []byte, fill func() ([]byte, error)) ([]byte, error) {
	for {
		c.mu.Lock()
		if ent := c.entries[string(key)]; ent != nil {
			c.unlink(ent)
			c.pushFront(ent)
			c.mu.Unlock()
			c.hits.Add(1)
			trace.FromContext(ctx).AddEvent("coalesce.hit", trace.Str("kind", "cached"))
			return ent.body, nil
		}
		fl := c.flights[string(key)]
		if fl == nil {
			break
		}
		if fl.done == nil {
			fl.done = make(chan struct{})
		}
		done := fl.done
		c.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.abandoned {
			continue
		}
		c.hits.Add(1)
		trace.FromContext(ctx).AddEvent("coalesce.hit", trace.Str("kind", "joined"))
		return fl.body, fl.err
	}
	k := string(key)
	fl := new(coalFlight)
	c.flights[k] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	trace.FromContext(ctx).AddEvent("coalesce.miss")
	fl.body, fl.err = fill()
	fl.abandoned = fl.err != nil && ctx.Err() != nil

	c.mu.Lock()
	delete(c.flights, k)
	if fl.err == nil {
		c.insert(k, fl.body)
	}
	if fl.done != nil {
		close(fl.done)
	}
	c.mu.Unlock()
	return fl.body, fl.err
}

// insert caches body under k, a key not cached yet, as the most recent
// entry; a full cache evicts its least recent entry and reuses it.
func (c *coalescer) insert(k string, body []byte) {
	var ent *coalEntry
	if len(c.entries) < coalesceCache {
		ent = new(coalEntry)
	} else {
		ent = c.lru.prev
		c.unlink(ent)
		delete(c.entries, ent.key)
	}
	ent.key, ent.body = k, body
	c.entries[k] = ent
	c.pushFront(ent)
}

func (c *coalescer) unlink(e *coalEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *coalescer) pushFront(e *coalEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.next.prev = e
	c.lru.next = e
}

// appendCoalesceKey appends the identity of one probe window to dst:
// endpoint, registration (name AND generation — a re-registered name
// must not hit the old name's cache), epoch version, then the request's
// numeric parameters.
func appendCoalesceKey(dst []byte, op string, id engine.PreparedID, version uint64, parts []int64) []byte {
	dst = append(append(append(dst, op...), '|'), id.Name...)
	dst = strconv.AppendUint(append(dst, '|'), id.Gen, 10)
	dst = strconv.AppendUint(append(dst, '|'), version, 10)
	for _, p := range parts {
		dst = strconv.AppendInt(append(dst, '|'), p, 10)
	}
	return dst
}
