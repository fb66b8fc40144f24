// Package trace is a dependency-free distributed-tracing core:
// W3C-traceparent-compatible trace/span ids carried on context.Context,
// cheap span start/end with typed attributes and events, head sampling
// by rate plus always-keep for errors and slow-tail requests, and a
// lock-free ring-buffer store served as a trace explorer on the ops
// listener. Everything is stdlib-only; a nil *Tracer (tracing disabled)
// makes every operation a no-op so hot paths stay allocation-free.
//
// The unit of storage is a locally-rooted trace: the first span started
// in this process (the HTTP server span on a coordinator, the RPC
// server span on a shard node) owns a span buffer that child spans
// append into; when the local root ends, the keep decision runs
// (head-sampled || any span errored || root duration ≥ slow threshold)
// and the whole buffer is committed to the store — or dropped — at
// once. Remote parents arriving via traceparent or the RARC trace
// field continue the same trace id, so /debug/traces on each node of a
// cluster shows its local slice of one distributed trace under one id.
package trace

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/reqid"
)

// TraceID is a 16-byte W3C trace id (non-zero when valid).
type TraceID [16]byte

// SpanID is an 8-byte W3C span id (non-zero when valid).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses 32 hex digits; ok is false for malformed or
// all-zero input.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// FlagSampled is the traceparent sampled flag: the trace's head-sample
// decision, made once at the root and honored downstream.
const FlagSampled byte = 0x01

// SpanContext identifies one span of one trace plus the trace flags —
// everything that crosses a process boundary.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether both ids are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Sampled reports the head-sample flag.
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// Traceparent renders the context in W3C traceparent form:
// 00-<32 hex trace id>-<16 hex span id>-<2 hex flags>.
func (sc SpanContext) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, '0', '0', '-')
	b = hex.AppendEncode(b, sc.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, sc.SpanID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, []byte{sc.Flags})
	return string(b)
}

// ParseTraceparent parses a W3C traceparent header. Any version except
// ff is accepted (future versions may append fields after the flags);
// zero trace or span ids are rejected per the spec.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < 55 {
		return sc, false
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(s[0:2])); err != nil || ver[0] == 0xff {
		return sc, false
	}
	if len(s) > 55 && (ver[0] == 0 || s[55] != '-') {
		return sc, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return sc, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return sc, false
	}
	var fl [1]byte
	if _, err := hex.Decode(fl[:], []byte(s[53:55])); err != nil {
		return sc, false
	}
	sc.Flags = fl[0]
	return sc, sc.Valid()
}

func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		binary.LittleEndian.PutUint64(t[:8], rand.Uint64())
		binary.LittleEndian.PutUint64(t[8:], rand.Uint64())
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		binary.LittleEndian.PutUint64(s[:], rand.Uint64())
	}
	return s
}

// Kind classifies a span for waterfall rendering and OTLP export.
type Kind uint8

const (
	// KindInternal is an in-process operation (engine build, WAL apply).
	KindInternal Kind = iota
	// KindServer covers handling one inbound request (HTTP or RARC).
	KindServer
	// KindClient covers one outbound call (RARC client, export POST).
	KindClient
)

// String names the kind for JSON rendering.
func (k Kind) String() string {
	switch k {
	case KindServer:
		return "server"
	case KindClient:
		return "client"
	default:
		return "internal"
	}
}

// AttrKind discriminates the typed Attr payload.
type AttrKind uint8

const (
	// AttrString marks a string-valued attribute.
	AttrString AttrKind = iota
	// AttrInt marks an int64-valued attribute.
	AttrInt
	// AttrBool marks a bool-valued attribute (Num 0/1).
	AttrBool
)

// Attr is one typed span attribute. Keys must be low-cardinality
// (endpoint names, peer addresses, shard indices — never raw tuple
// values); see CONTRIBUTING for the cardinality rules.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Num  int64
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Kind: AttrString, Str: v} }

// Int builds an int64 attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Kind: AttrInt, Num: v} }

// Bool builds a bool attribute.
func Bool(k string, v bool) Attr {
	var n int64
	if v {
		n = 1
	}
	return Attr{Key: k, Kind: AttrBool, Num: n}
}

// Event is one timestamped point event inside a span (WAL fsync,
// coalesce hit, overlay catch-up).
type Event struct {
	Name  string
	At    int64 // unix nanos
	Attrs []Attr
}

// SpanData is the immutable record of one finished span.
type SpanData struct {
	Name   string
	ID     SpanID
	Parent SpanID // zero for the local root
	Kind   Kind
	Start  int64 // unix nanos
	Dur    int64 // nanos
	Err    string
	Attrs  []Attr
	Events []Event
}

// maxSpansPerTrace caps one local trace's span buffer so a runaway
// request cannot hold unbounded memory; overflow is counted, not kept.
const maxSpansPerTrace = 512

// state is the shared per-local-trace accumulator: child spans append
// their finished data here; the local root's End commits or drops the
// whole buffer atomically.
type state struct {
	tracer *Tracer
	tid    TraceID
	flags  byte

	mu      sync.Mutex
	spans   []SpanData
	done    bool
	errSeen bool
	dropped int
}

// Span is one in-flight span. The zero of *Span (nil) is valid and
// inert: every method no-ops, so call sites never branch on enablement.
// A Span is owned by one goroutine; End must be called exactly once.
type Span struct {
	st    *state
	root  bool
	start time.Time // monotonic anchor for Dur
	data  SpanData
}

// Tracer makes sampling decisions and owns the store and optional
// exporter. A nil Tracer is valid and disables tracing entirely.
type Tracer struct {
	headBar uint64 // keep when rand.Uint64() < headBar
	slow    time.Duration
	store   *Store
	export  *Exporter

	stStarted atomic.Uint64
	stKept    atomic.Uint64
}

// Options configures New.
type Options struct {
	// Rate is the head-sampling probability in [0, 1]: the fraction of
	// root spans whose traces are kept regardless of outcome (and whose
	// sampled flag propagates downstream).
	Rate float64
	// Slow keeps any trace whose local root ran at least this long,
	// independent of the head decision; 0 disables the slow-tail keep.
	Slow time.Duration
	// Buffer is the ring-buffer capacity in traces (default 256).
	Buffer int
	// Export, when non-nil, receives every kept trace for OTLP/JSON
	// delivery in the background.
	Export *Exporter
}

// New builds a Tracer. The caller decides enablement: construct a
// Tracer only when tracing is on and pass nil everywhere otherwise.
func New(o Options) *Tracer {
	n := o.Buffer
	if n <= 0 {
		n = 256
	}
	t := &Tracer{slow: o.Slow, store: NewStore(n), export: o.Export}
	switch {
	case o.Rate >= 1:
		t.headBar = ^uint64(0)
	case o.Rate > 0:
		t.headBar = uint64(o.Rate * float64(1<<63) * 2)
	}
	return t
}

// Store returns the tracer's ring-buffer store (nil for a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// Close drains and stops the attached exporter, if any. The tracer
// itself stays usable (spans still record and store locally).
func (t *Tracer) Close() {
	if t == nil || t.export == nil {
		return
	}
	t.export.Close()
}

// Stats reports lifetime root-span starts and kept traces.
func (t *Tracer) Stats() (started, kept uint64) {
	if t == nil {
		return 0, 0
	}
	return t.stStarted.Load(), t.stKept.Load()
}

// sampleHead decides the head keep from the trace id's low 8 bytes
// rather than a fresh random draw: the id bytes are already uniform,
// it saves a generator call on every root start, and — like OTLP
// ratio samplers — it makes the decision a pure function of the id,
// so any process sampling the same trace at the same rate agrees.
func (t *Tracer) sampleHead(tid TraceID) bool {
	return t.headBar == ^uint64(0) ||
		(t.headBar > 0 && binary.LittleEndian.Uint64(tid[8:]) < t.headBar)
}

type spanKey struct{}
type remoteKey struct{}

// spanCtx carries the active span on the context without a separate
// context.WithValue allocation: it is embedded in the same heap block
// as the span it carries (see rootBlock/childBlock), so starting a
// span costs exactly one allocation.
type spanCtx struct {
	parent context.Context
	s      *Span
}

func (c *spanCtx) Deadline() (time.Time, bool) { return c.parent.Deadline() }
func (c *spanCtx) Done() <-chan struct{}       { return c.parent.Done() }
func (c *spanCtx) Err() error                  { return c.parent.Err() }
func (c *spanCtx) Value(k any) any {
	if _, ok := k.(spanKey); ok {
		return c.s
	}
	return c.parent.Value(k)
}

// rootBlock is the single allocation behind a local-root Start: trace
// state, the root span, and its context wrapper, laid out together.
type rootBlock struct {
	st  state
	sp  Span
	ctx spanCtx
}

// childBlock is the single allocation behind a child Start.
type childBlock struct {
	sp  Span
	ctx spanCtx
}

// ContextWithRemote records a remote parent span context (parsed from
// traceparent or the RARC trace field) so the next Start continues
// that trace instead of minting a new id.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// Detach returns ctx without its local span but still in its trace: the
// next Start roots a new local buffer under that span, as under a
// remote parent, so a subtree of many spans neither crowds the span's
// buffer nor is dropped from it.
func Detach(ctx context.Context) context.Context {
	sc, _ := SpanContextOf(ctx)
	return ContextWithRemote(detached{ctx}, sc)
}

// detached hides its parent's local span.
type detached struct{ context.Context }

func (c detached) Value(k any) any {
	if _, ok := k.(spanKey); ok {
		return nil
	}
	return c.Context.Value(k)
}

// FromContext returns the active local span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// SpanContextOf returns the propagation context of the active local
// span if any, else the remote parent if any. ok is false when the
// context carries no trace.
func SpanContextOf(ctx context.Context) (SpanContext, bool) {
	if s := FromContext(ctx); s != nil {
		return s.Context(), true
	}
	sc, ok := ctx.Value(remoteKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Start begins a span. With a local parent on ctx the span joins its
// trace; with only a remote parent it roots a new local buffer under
// the remote trace id (inheriting the sampled flag); with neither it
// mints a trace id and makes the head-sampling decision. A nil tracer
// returns (ctx, nil) untouched — and nil *Span methods all no-op.
func (t *Tracer) Start(ctx context.Context, name string, kind Kind) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	now := time.Now()
	if parent := FromContext(ctx); parent != nil && parent.st != nil && parent.st.tracer == t {
		cb := &childBlock{}
		s := &cb.sp
		s.st = parent.st
		s.start = now
		s.data = SpanData{Name: name, ID: newSpanID(), Parent: parent.data.ID, Kind: kind, Start: now.UnixNano()}
		cb.ctx = spanCtx{parent: ctx, s: s}
		return &cb.ctx, s
	}
	var tid TraceID
	var parentID SpanID
	var flags byte
	if rsc, ok := ctx.Value(remoteKey{}).(SpanContext); ok && rsc.Valid() {
		tid, parentID, flags = rsc.TraceID, rsc.SpanID, rsc.Flags
	} else {
		tid = newTraceID()
		if t.sampleHead(tid) {
			flags = FlagSampled
		}
	}
	rb := &rootBlock{}
	st := &rb.st
	st.tracer = t
	st.tid = tid
	st.flags = flags
	s := &rb.sp
	s.st = st
	s.root = true
	s.start = now
	s.data = SpanData{Name: name, ID: newSpanID(), Parent: parentID, Kind: kind, Start: now.UnixNano()}
	if id := reqid.From(ctx); id != "" {
		s.data.Attrs = append(s.data.Attrs, Str("request_id", id))
	}
	t.stStarted.Add(1)
	rb.ctx = spanCtx{parent: ctx, s: s}
	return &rb.ctx, s
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.st.tid, SpanID: s.data.ID, Flags: s.st.flags}
}

// TraceIDString returns the 32-hex trace id, or "" for a nil span —
// the exemplar and request-log join key.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.st.tid.String()
}

// SetAttr appends typed attributes. Not safe for concurrent use with
// other methods of the same span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, attrs...)
}

// AddEvent appends a point event stamped now.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.data.Events = append(s.data.Events, Event{Name: name, At: time.Now().UnixNano(), Attrs: attrs})
}

// SetError marks the span failed; any failed span forces the trace to
// be kept when the local root ends. A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.data.Err = err.Error()
}

// SetErrorString is SetError for call sites that only have a message.
func (s *Span) SetErrorString(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.data.Err = msg
}

// End finishes the span. Ending the local root runs the keep decision
// (head-sampled, any error, or root duration ≥ the slow threshold) and
// commits the whole local buffer to the store and exporter. Spans
// ending after their root has committed are dropped silently (the
// buffer is sealed); End is idempotent per span only in that sealed
// case — call it exactly once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.data.Dur = int64(time.Since(s.start))
	st := s.st
	st.mu.Lock()
	if st.done {
		st.mu.Unlock()
		return
	}
	if !s.root {
		if s.data.Err != "" {
			st.errSeen = true
		}
		// Children stop one short of the cap so the root's own data
		// (appended at commit) always fits.
		if len(st.spans) < maxSpansPerTrace-1 {
			st.spans = append(st.spans, s.data)
		} else {
			st.dropped++
		}
		st.mu.Unlock()
		return
	}
	st.done = true
	spans := st.spans
	errSeen := st.errSeen || s.data.Err != ""
	dropped := st.dropped
	st.spans = nil
	st.mu.Unlock()

	t := st.tracer
	reason := ""
	switch {
	case st.flags&FlagSampled != 0:
		reason = "head"
	case errSeen:
		reason = "error"
	case t.slow > 0 && time.Duration(s.data.Dur) >= t.slow:
		reason = "slow"
	default:
		// Discarded: the root's own data was never buffered, so the
		// common unsampled request pays no span-copy at all.
		return
	}
	spans = append(spans, s.data)
	sortSpans(spans)
	tr := &Trace{ID: st.tid, Reason: reason, Spans: spans, Dropped: dropped}
	t.stKept.Add(1)
	t.store.Add(tr)
	if t.export != nil {
		t.export.Enqueue(tr)
	}
}

// sortSpans orders by start time (root first in practice: it started
// earliest), stable so equal timestamps keep append order.
func sortSpans(spans []SpanData) {
	// Insertion sort: buffers are small and nearly ordered by end time.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start < spans[j-1].Start; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}
