// resilience.go is the serve layer's overload machinery: the admission
// pipeline every request passes through (per-client rate limit →
// per-request deadline → global concurrency gate), plus the degraded
// read/write policy applied while the engine is behind.
//
// The shedding contract is uniform: a shed request gets a structured
// JSON error, an honest status (429 when the client is out of budget,
// 503 when the server is), and a Retry-After telling it when trying
// again is worth the bytes. Monitoring endpoints (/v1/stats, /healthz,
// /readyz) bypass admission entirely — an operator must be able to see
// an overloaded server.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/reqid"
)

// healthTTL bounds how often request paths re-sample engine health.
// Health() scans the structure cache under a lock; overload is exactly
// when thousands of concurrent requests would otherwise all pay it.
const healthTTL = 100 * time.Millisecond

var (
	errRateLimited = errors.New("serve: client request rate over budget")
	errSaturated   = errors.New("serve: server saturated; wait queue full")
	errDegraded    = errors.New("serve: engine degraded; writes shed until it catches up")
)

// admit wraps a handler with the full admission pipeline; admitStream
// is admit without the per-request deadline (a healthy NDJSON stream
// may legitimately outlive any one-request budget — stalled streams
// are bounded by per-chunk write deadlines instead, see streamNDJSON).
func (s *server) admit(h http.HandlerFunc) http.HandlerFunc       { return s.admitAs(h, false) }
func (s *server) admitStream(h http.HandlerFunc) http.HandlerFunc { return s.admitAs(h, true) }

func (s *server) admitAs(h http.HandlerFunc, stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.lim != nil {
			if ok, retry := s.lim.Allow(clientKey(r), time.Now()); !ok {
				s.shed429.Add(1)
				shed(w, http.StatusTooManyRequests, retry, errRateLimited)
				return
			}
		}
		if s.cfg.RequestTimeout > 0 && !stream {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.gate != nil {
			release, err := s.gate.Enter(r.Context())
			if err != nil {
				s.shed503.Add(1)
				shed(w, http.StatusServiceUnavailable, time.Second, errSaturated)
				return
			}
			defer release()
		}
		h(w, r)
	}
}

// clientKey identifies a client for rate limiting: the remote host
// without the (per-connection, meaningless) port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// shed writes a shed response: status, Retry-After, structured body.
func shed(w http.ResponseWriter, status int, retry time.Duration, err error) {
	setRetryAfter(w, retry)
	writeJSON(w, status, api.Error{Error: err.Error()})
}

// setRetryAfter renders a Retry-After header in whole seconds, rounded
// up so the client never retries early.
func setRetryAfter(w http.ResponseWriter, retry time.Duration) {
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// health returns a recent engine health sample, re-sampling at most
// every healthTTL.
func (s *server) health() engine.Health {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if s.healthAt.IsZero() || time.Since(s.healthAt) > healthTTL {
		s.healthC = s.e.Health()
		s.healthAt = time.Now()
	}
	return s.healthC
}

// acquireRead resolves the handle for a read. On a healthy engine it is
// exactly AcquireCtx (re-preparing to the current version if needed).
// On a degraded engine — WAL broken, or an overlay backlog at the hard
// rebuild threshold — it serves the registration's last published
// epoch instead: every handle is an immutable, internally consistent
// snapshot, so a slightly stale answer beats convoying every reader
// behind a synchronous rebuild.
func (s *server) acquireRead(ctx context.Context, pq *engine.PreparedQuery) (*engine.Handle, error) {
	if s.health().Degraded() {
		if h, fresh := pq.Current(); h != nil {
			if !fresh {
				s.degradedReads.Add(1)
				if s.reqLog != nil {
					s.reqLog.LogAttrs(ctx, slog.LevelWarn, "serve: degraded read from stale epoch",
						slog.String("request_id", reqid.From(ctx)),
						slog.Uint64("epoch", h.Version()))
				}
			}
			return h, nil
		}
	}
	return pq.AcquireCtx(ctx)
}

// shedWrite reports (and records) whether mutations should currently
// be refused, writing the 503 if so. Shedding writes while the engine
// is behind is what lets it catch up.
func (s *server) shedWrite(w http.ResponseWriter, r *http.Request) bool {
	if !s.health().Degraded() {
		return false
	}
	s.writeSheds.Add(1)
	if s.reqLog != nil {
		s.reqLog.LogAttrs(r.Context(), slog.LevelWarn, "serve: write shed while degraded",
			slog.String("request_id", reqid.From(r.Context())),
			slog.String("client", clientKey(r)))
	}
	shed(w, http.StatusServiceUnavailable, time.Second, errDegraded)
	return true
}
