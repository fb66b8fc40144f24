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
package serve

import (
	"context"
	"fmt"
	"strings"
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
	seq     uint64

	hits   atomic.Uint64
	misses atomic.Uint64
}

// coalFlight is one in-progress fill; joiners block on done and share
// the leader's result.
type coalFlight struct {
	done chan struct{}
	body []byte
	err  error
}

type coalEntry struct {
	body []byte
	seq  uint64 // LRU stamp
}

func newCoalescer() *coalescer {
	return &coalescer{
		flights: make(map[string]*coalFlight),
		entries: make(map[string]*coalEntry),
	}
}

// do returns the encoded response body for key, invoking fill at most
// once across all concurrent identical requests. Successful bodies are
// cached (LRU) until evicted; errors are shared with the in-flight
// joiners but never cached, so a transient failure does not poison the
// key.
func (c *coalescer) do(ctx context.Context, key string, fill func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if ent := c.entries[key]; ent != nil {
		c.seq++
		ent.seq = c.seq
		c.mu.Unlock()
		c.hits.Add(1)
		trace.FromContext(ctx).AddEvent("coalesce.hit", trace.Str("kind", "cached"))
		return ent.body, nil
	}
	if fl := c.flights[key]; fl != nil {
		c.mu.Unlock()
		<-fl.done
		c.hits.Add(1)
		trace.FromContext(ctx).AddEvent("coalesce.hit", trace.Str("kind", "joined"))
		return fl.body, fl.err
	}
	fl := &coalFlight{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	trace.FromContext(ctx).AddEvent("coalesce.miss")
	fl.body, fl.err = fill()

	c.mu.Lock()
	delete(c.flights, key)
	if fl.err == nil {
		for len(c.entries) >= coalesceCache {
			var oldestKey string
			var oldest uint64
			for k, e := range c.entries {
				if oldestKey == "" || e.seq < oldest {
					oldestKey, oldest = k, e.seq
				}
			}
			delete(c.entries, oldestKey)
		}
		c.seq++
		c.entries[key] = &coalEntry{body: fl.body, seq: c.seq}
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.body, fl.err
}

// coalesceKey builds the identity of one probe window: endpoint,
// registration (name AND generation — a re-registered name must not
// hit the old name's cache), epoch version, then the request's numeric
// parameters.
func coalesceKey(op string, id engine.PreparedID, version uint64, parts ...int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%d", op, id.Name, id.Gen, version)
	for _, p := range parts {
		fmt.Fprintf(&b, "|%d", p)
	}
	return b.String()
}
