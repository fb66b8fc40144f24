package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/order"
	"rankedaccess/internal/trace"
)

// Options tunes a Client. The zero value picks the defaults below.
type Options struct {
	// DialTimeout bounds connection establishment (handshake
	// included); 2s when 0.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline applied when the caller's
	// context has none; 10s when 0. Probes issued from the shard merge
	// layer carry no context, so this is their effective deadline.
	CallTimeout time.Duration
	// MaxIdle bounds the pooled idle connections per peer; 4 when 0.
	MaxIdle int
	// IdleTimeout is how long an idle pooled connection survives
	// before the reaper closes it; 60s when 0.
	IdleTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.MaxIdle <= 0 {
		o.MaxIdle = 4
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 60 * time.Second
	}
	return o
}

// pconn is one pooled connection with its buffered reader and the two
// frame buffers every call on it reuses: w holds the request being
// written, r the response last read. A decoded value must be out of r
// before the connection is pooled again (see callInner).
type pconn struct {
	c    net.Conn
	br   *bufio.Reader
	last time.Time
	w    enc
	r    dec
}

// CallStats counts a client's calls and failures per kind, always on
// (atomic counters), for tests and diagnostics independent of any
// metrics registry.
type CallStats struct {
	Calls  [numKinds]uint64 // indexed by Kind
	Errors [numKinds]uint64
}

// Client issues typed calls to one peer over pooled connections. It is
// safe for concurrent use; concurrent calls use separate connections.
// Transport-level failures are retried once on a fresh connection
// (every call is an idempotent read), then surfaced as ErrUnavailable.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	idle   []*pconn
	closed bool

	seq   atomic.Uint64
	calls [numKinds]atomic.Uint64
	errs  [numKinds]atomic.Uint64

	m      atomic.Pointer[ClientMetrics]
	tracer atomic.Pointer[trace.Tracer]

	reapStop chan struct{}
	reapOnce sync.Once
}

// NewClient returns a client for the peer at addr. Connections are
// dialed lazily; the idle reaper starts with the first call.
func NewClient(addr string, opts Options) *Client {
	return &Client{addr: addr, opts: opts.withDefaults(), reapStop: make(chan struct{})}
}

// Addr returns the peer address the client dials.
func (c *Client) Addr() string { return c.addr }

// SetMetrics attaches per-peer instruments (see NewClientMetrics);
// nil detaches. Safe to call at any time.
func (c *Client) SetMetrics(m *ClientMetrics) { c.m.Store(m) }

// SetTracer makes every call emit a client span (one per attempt
// sequence, carrying peer and method) and propagate the caller's trace
// context in the v2 wire field. nil disables. Safe to call at any time.
func (c *Client) SetTracer(t *trace.Tracer) { c.tracer.Store(t) }

// Stats snapshots the per-kind call counters.
func (c *Client) Stats() CallStats {
	var s CallStats
	for i := range s.Calls {
		s.Calls[i] = c.calls[i].Load()
		s.Errors[i] = c.errs[i].Load()
	}
	return s
}

// Close releases every pooled connection and stops the reaper. In-
// flight calls finish on their own connections.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	close(c.reapStop)
	for _, pc := range idle {
		pc.c.Close()
	}
}

// get returns a pooled connection or dials a new one. fresh reports
// that the connection was just dialed (so a transport failure on it is
// not a stale-pool artifact).
func (c *Client) get(deadline time.Time) (*pconn, bool, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	if n := len(c.idle); n > 0 {
		pc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return pc, false, nil
	}
	c.mu.Unlock()
	return c.dial(deadline)
}

// dial opens and handshakes a fresh connection.
func (c *Client) dial(deadline time.Time) (*pconn, bool, error) {
	dialDeadline := time.Now().Add(c.opts.DialTimeout)
	if deadline.Before(dialDeadline) {
		dialDeadline = deadline
	}
	conn, err := net.DialTimeout("tcp", c.addr, time.Until(dialDeadline))
	if err != nil {
		return nil, true, err
	}
	pc, err := handshake(conn, dialDeadline)
	if err != nil {
		conn.Close()
	}
	return pc, true, err
}

// handshake runs the client side of the connect preamble on conn.
func handshake(conn net.Conn, deadline time.Time) (*pconn, error) {
	conn.SetDeadline(deadline)
	if err := writeHandshake(conn, ProtoVersion); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	// The server replies min(our version, its version); anything above
	// what we offered or below our floor is a protocol violation.
	ver, err := readHandshake(br)
	if err != nil {
		return nil, err
	}
	if ver < minProtoVersion || ver > ProtoVersion {
		return nil, fmt.Errorf("%w: server negotiated version %d, want %d..%d",
			ErrBadFrame, ver, minProtoVersion, ProtoVersion)
	}
	return &pconn{c: conn, br: br}, nil
}

// put returns a healthy connection to the pool (closing it when the
// pool is full or the client closed) and lazily starts the reaper.
func (c *Client) put(pc *pconn) {
	c.reapOnce.Do(func() { go c.reap() })
	pc.last = time.Now()
	pc.w.b, pc.r.b = kept(pc.w.b), kept(pc.r.b)
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.opts.MaxIdle {
		c.mu.Unlock()
		pc.c.Close()
		return
	}
	c.idle = append(c.idle, pc)
	c.mu.Unlock()
}

// reap closes pooled connections idle past IdleTimeout.
func (c *Client) reap() {
	t := time.NewTicker(c.opts.IdleTimeout / 2)
	defer t.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case now := <-t.C:
			var dead []*pconn
			c.mu.Lock()
			keep := c.idle[:0]
			for _, pc := range c.idle {
				if now.Sub(pc.last) > c.opts.IdleTimeout {
					dead = append(dead, pc)
				} else {
					keep = append(keep, pc)
				}
			}
			c.idle = keep
			c.mu.Unlock()
			for _, pc := range dead {
				pc.c.Close()
			}
		}
	}
}

// call performs one request/response exchange: encode, send, read the
// status, decode. decode runs on an OK response only, against the
// connection's read buffer, and must copy out what it keeps (every dec
// reader does); call checks afterwards that it consumed the response
// exactly. Transport errors are retried once on a freshly dialed
// connection; the retry never reuses the pool, so a stale pooled
// connection cannot fail a call twice.
func (c *Client) call(ctx context.Context, kind Kind, body func(*enc), decode func(*dec)) error {
	c.calls[kind].Add(1)
	m := c.m.Load()
	var span *trace.Span
	if t := c.tracer.Load(); t != nil {
		ctx, span = t.Start(ctx, "rarc.client."+KindName(kind), trace.KindClient)
		span.SetAttr(trace.Str("peer", c.addr))
	}
	start := time.Now()
	if m != nil {
		m.inflight.Inc()
	}
	err := c.callInner(ctx, kind, body, decode)
	if m != nil {
		m.inflight.Dec()
		m.latency.ObserveExemplar(time.Since(start).Seconds(), span.TraceIDString())
		m.requests[kind].Inc()
		if err != nil {
			m.errors[kind].Inc()
		}
	}
	if err != nil {
		c.errs[kind].Add(1)
		span.SetError(err)
	}
	span.End()
	return err
}

func (c *Client) callInner(ctx context.Context, kind Kind, body func(*enc), decode func(*dec)) error {
	now := time.Now()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = now.Add(c.opts.CallTimeout)
	}
	millis := min(max(deadline.Sub(now).Milliseconds(), 1), 1<<31-1)
	h := reqHeader{id: c.seq.Add(1), kind: kind, deadlineMillis: uint32(millis)}
	h.trace, _ = trace.SpanContextOf(ctx)

	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var pc *pconn
		var err error
		if attempt == 0 {
			pc, _, err = c.get(deadline)
		} else {
			pc, _, err = c.dial(deadline)
		}
		if err != nil {
			lastErr = err
			continue
		}
		// The request is encoded into the connection's own buffer, so a
		// retry encodes it again for the fresh connection.
		pc.w.frame()
		h.encode(&pc.w)
		body(&pc.w)
		if err := pc.roundTrip(&h, deadline); err != nil {
			pc.c.Close()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		// Decode BEFORE pooling: pc.r is the connection's read buffer,
		// and the next caller to take the connection overwrites it.
		err = decodeStatus(&pc.r)
		if err == nil {
			decode(&pc.r)
			err = pc.r.err()
		}
		c.put(pc)
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%w: %s: %v", ErrUnavailable, c.addr, lastErr)
}

// roundTrip writes the request frame in pc.w and reads the matching
// response into pc.r, leaving it positioned past the echoed id and kind.
// The deadline is set once and never cleared: the next call on the
// connection replaces it before touching the socket, and a pooled
// connection is not read in between.
func (pc *pconn) roundTrip(h *reqHeader, deadline time.Time) error {
	pc.c.SetDeadline(deadline)
	if err := writeFrame(pc.c, pc.w.b); err != nil {
		return err
	}
	payload, err := readFrame(pc.br, pc.r.b)
	pc.r = dec{b: payload}
	if err != nil {
		return err
	}
	gotID, gotKind := pc.r.u64(), Kind(pc.r.u8())
	if pc.r.bad || gotID != h.id || gotKind != h.kind {
		return fmt.Errorf("%w: response for request %d kind %d, want %d kind %d",
			ErrBadFrame, gotID, gotKind, h.id, h.kind)
	}
	return nil
}

// decodeStatus consumes a response's status byte and, for a non-OK
// status, maps it back to the caller-visible error; well-known statuses
// decode to the exact engine sentinels so distributed error behavior
// matches single-node behavior.
func decodeStatus(d *dec) error {
	status := d.u8()
	if d.bad {
		return fmt.Errorf("%w: empty response payload", ErrBadFrame)
	}
	if status == statusOK {
		return nil
	}
	msg := d.str()
	switch status {
	case statusOutOfBound:
		return access.ErrOutOfBound
	case statusNotAnAnswer:
		return access.ErrNotAnAnswer
	case statusStale:
		return ErrStaleVersion
	case statusBadRequest:
		return &BadRequestError{Msg: msg}
	default:
		return &RemoteError{Msg: msg}
	}
}

// Prepare asks the peer to build (or reuse) the owned shard structures
// for the spec.
func (c *Client) Prepare(ctx context.Context, spec Spec) (*PrepareInfo, error) {
	var p *PrepareInfo
	if err := c.call(ctx, KindPrepare, spec.encode, func(d *dec) { p = decodePrepareInfo(d) }); err != nil {
		return nil, err
	}
	if len(p.Totals) != len(spec.Owned) {
		return nil, fmt.Errorf("%w: %d totals for %d owned shards", ErrBadFrame, len(p.Totals), len(spec.Owned))
	}
	return p, nil
}

// Count returns the total answer count over the peer's owned shards.
func (c *Client) Count(ctx context.Context, spec CountSpec) (n int64, err error) {
	err = c.call(ctx, KindCount, spec.encode, func(d *dec) { n = d.i64() })
	return n, err
}

// Rank prices one answer on every owned shard, as a RankBatch of one:
// ranks is aligned with the spec's Owned slice, exact reports whether
// some owned shard holds the answer.
func (c *Client) Rank(ctx context.Context, spec Spec, version uint64, a order.Answer) (ranks []int64, exact bool, err error) {
	ranks, exacts, err := c.RankBatch(ctx, spec, version, []order.Answer{a})
	if err != nil {
		return nil, false, err
	}
	return ranks, exacts[0], nil
}

// Range returns one shard's local answers k0 ≤ k < k1 in order.
func (c *Client) Range(ctx context.Context, spec Spec, version uint64, shard int, k0, k1 int64) (out []order.Answer, err error) {
	err = c.call(ctx, KindRange, func(e *enc) {
		spec.encode(e)
		e.u64(version)
		e.u32(uint32(shard))
		e.i64(k0)
		e.i64(k1)
	}, func(d *dec) {
		// A node never serves more than it was asked for, and what was
		// asked for is bounded by the frame.
		out = d.answers(maxFrame / 8)
	})
	return out, err
}

// AccessBatch returns the local answers at (shards[i], pos[i]) over
// the peer's owned shards, in request order, each priced on every owned
// shard: ranks[i*len(spec.Owned)+j] is the spec's j-th owned shard's
// count of answers strictly below answers[i]. One round trip fetches
// and prices all of a rank round's pivots this peer owns.
func (c *Client) AccessBatch(ctx context.Context, spec Spec, version uint64, shards []int, pos []int64) (answers []order.Answer, ranks []int64, err error) {
	if len(shards) != len(pos) || len(pos) > MaxPivots {
		return nil, nil, fmt.Errorf("rpc: access batch of %d shards and %d positions (cap %d)", len(shards), len(pos), MaxPivots)
	}
	req := AccessBatchReq{Spec: spec, Version: version, Shards: shards, Pos: pos}
	err = c.call(ctx, KindAccessBatch, req.encode, func(d *dec) { answers, ranks = decodeAccessBatchResp(d, len(pos), len(spec.Owned)) })
	return answers, ranks, err
}

// RankBatch prices every answer on every owned shard in one round
// trip: ranks[i*len(spec.Owned)+j] is the spec's j-th owned shard's
// count of answers strictly below answers[i], exact[i] whether one of
// them holds answers[i].
func (c *Client) RankBatch(ctx context.Context, spec Spec, version uint64, answers []order.Answer) (ranks []int64, exact []bool, err error) {
	if len(answers) > MaxPivots {
		return nil, nil, fmt.Errorf("rpc: rank batch of %d answers exceeds the cap %d", len(answers), MaxPivots)
	}
	for _, a := range answers {
		if len(a) != len(answers[0]) {
			return nil, nil, fmt.Errorf("rpc: rank batch mixes answers of %d and %d values", len(answers[0]), len(a))
		}
	}
	req := RankBatchReq{Spec: spec, Version: version, Answers: answers}
	var resp RankBatchResp
	if err := c.call(ctx, KindRankBatch, req.encode, func(d *dec) { resp = decodeRankBatchResp(d) }); err != nil {
		return nil, nil, err
	}
	if len(resp.Exact) != len(answers) || len(resp.Ranks) != len(answers)*len(spec.Owned) {
		return nil, nil, fmt.Errorf("%w: %d ranks and %d flags for %d answers on %d owned shards",
			ErrBadFrame, len(resp.Ranks), len(resp.Exact), len(answers), len(spec.Owned))
	}
	return resp.Ranks, resp.Exact, nil
}

// StatsCall returns the peer's node-level counters.
func (c *Client) StatsCall(ctx context.Context) (*PeerStats, error) {
	st := &PeerStats{}
	err := c.call(ctx, KindStats, func(*enc) {}, func(d *dec) {
		*st = PeerStats{Version: d.u64(), Tuples: d.i64(), Builds: d.i64()}
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Health returns the peer's readiness.
func (c *Client) Health(ctx context.Context) (*HealthInfo, error) {
	h := &HealthInfo{}
	err := c.call(ctx, KindHealth, func(*enc) {}, func(d *dec) {
		*h = HealthInfo{Ready: d.u8() != 0, Reasons: d.strs()}
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// ClientMetrics are the per-peer instruments a coordinator exports on
// /metrics for every shard node it talks to.
type ClientMetrics struct {
	requests [numKinds]*metrics.Counter // indexed by Kind; kinds of one method share a counter
	errors   [numKinds]*metrics.Counter
	latency  *metrics.Histogram
	inflight *metrics.Gauge
}

// rpcLatencyBounds bracket intra-cluster round-trips: 10µs to 2.5s.
// The sub-millisecond decades matter here — same-rack rank RPCs sit
// well under 1ms, and HTTP-scale buckets would flatten them all into
// one bin.
var rpcLatencyBounds = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
	0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// NewClientMetrics registers the per-peer RPC series (request and
// error counters per method, one latency histogram, one in-flight
// gauge) labeled with the peer address, and returns the bundle to
// attach via Client.SetMetrics.
func NewClientMetrics(reg *metrics.Registry, peer string) *ClientMetrics {
	return &ClientMetrics{
		requests: methodCounters(reg, "ra_rpc_client_requests_total",
			"RPCs issued to this peer by method.", "peer", peer),
		errors: methodCounters(reg, "ra_rpc_client_errors_total",
			"Failed RPCs to this peer by method.", "peer", peer),
		latency: reg.Histogram("ra_rpc_client_latency_seconds",
			"RPC round-trip latency to this peer.", rpcLatencyBounds, "peer", peer),
		inflight: reg.Gauge("ra_rpc_client_in_flight",
			"RPCs currently outstanding to this peer.", "peer", peer),
	}
}
