// retry.go is the SDK's overload-handling policy: per-request
// deadlines, and capped exponential backoff with jitter for requests
// the server shed (429/503) or that failed in transport before any
// state could change. The server signals "not processed" with those
// two statuses — its admission control rejects before the handler
// runs — so retrying them is safe even for writes; after a transport
// error only an idempotent request is replayed — a GET, except the one
// that advances a cursor (see Client.send).
package client

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Default timing of the retry policy; override any of these via
// Options at Dial time.
const (
	// DefaultRequestTimeout bounds one non-streaming request end to
	// end, backoff sleeps included. Streaming calls (Cursor.Stream) are
	// exempt — a healthy stream may legitimately outlive any fixed
	// per-request budget.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultMaxRetries is how many times a shed request is retried
	// (attempts = retries + 1).
	DefaultMaxRetries = 2
	// DefaultRetryBaseDelay seeds the exponential backoff.
	DefaultRetryBaseDelay = 100 * time.Millisecond
	// DefaultRetryMaxDelay caps one backoff sleep, a server-sent
	// Retry-After included.
	DefaultRetryMaxDelay = 2 * time.Second
)

// retryPolicy is the resolved retry configuration of one Client.
type retryPolicy struct {
	max  int           // retries after the first attempt; 0 disables
	base time.Duration // first backoff step
	cap  time.Duration // ceiling for any one sleep
}

// resolvePolicy applies defaults: zero fields mean the package
// defaults, negative MaxRetries disables retries entirely.
func resolvePolicy(opts *Options) retryPolicy {
	p := retryPolicy{max: DefaultMaxRetries, base: DefaultRetryBaseDelay, cap: DefaultRetryMaxDelay}
	if opts == nil {
		return p
	}
	if opts.MaxRetries != 0 {
		p.max = opts.MaxRetries
		if p.max < 0 {
			p.max = 0
		}
	}
	if opts.RetryBaseDelay > 0 {
		p.base = opts.RetryBaseDelay
	}
	if opts.RetryMaxDelay > 0 {
		p.cap = opts.RetryMaxDelay
	}
	return p
}

// shouldRetryStatus reports whether a response status means the server
// shed the request without processing it.
func shouldRetryStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// delay picks the sleep before retry number attempt (0-based),
// honoring a server-sent Retry-After up to the policy cap; without one
// it backs off exponentially with jitter in [d/2, d) so a burst of
// shed clients does not reconverge on the same instant.
func (p retryPolicy) delay(attempt int, resp *http.Response) time.Duration {
	if resp != nil {
		if ra := parseRetryAfter(resp.Header.Get("Retry-After")); ra > 0 {
			if ra > p.cap {
				ra = p.cap
			}
			return ra
		}
	}
	d := p.base << attempt
	if d > p.cap || d <= 0 {
		d = p.cap
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// parseRetryAfter reads the delay-seconds form of Retry-After
// (the form this server emits); 0 when absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
