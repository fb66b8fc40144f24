// Package client is the Go SDK for the ranked direct-access service's
// v1 prepared-query API (cmd/serve). It depends only on the standard
// library (plus the dependency-free internal/trace context package and
// the leaf declarations of the wire: internal/api for every /v1 body,
// internal/stats for the counters), so importing it does not pull in
// the engine. The SDK's data types are aliases of those declarations —
// the server encodes the very types the SDK decodes, so the two cannot
// drift.
//
// When the calling context carries a trace span (internal/trace), every
// request sends a W3C traceparent header, so a traced caller's requests
// join its trace on the server side.
//
// The shape mirrors prepared statements: Dial a server, Register a
// spec once under a name, then probe the returned Prepared by name —
// Access for index batches, Range for contiguous windows, Cursor for
// stateful paging and NDJSON streaming:
//
//	c, err := client.Dial(ctx, "http://localhost:8080", nil)
//	p, err := c.Register(ctx, "by_xy", client.Spec{
//		Query: "Q(x, y, z) :- R(x, y), S(y, z)",
//		Order: "x, y desc",
//	})
//	rows, err := p.Range(ctx, 0, 100)
//	cur, err := p.Cursor(ctx, 0)
//	n, err := cur.Stream(ctx, 10000, func(row []client.Value) error {
//		...; return nil // row aliases a reused buffer
//	})
//
// Errors carry the server's {"error": ...} envelope as *APIError and
// satisfy errors.Is against the package sentinels (ErrNotPrepared,
// ErrOutOfRange, ErrIntractable), which map the v1 API's stable status
// codes (404/416/422) back to the same conditions the in-process facade
// reports.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"rankedaccess/internal/api"
	"rankedaccess/internal/stats"
	"rankedaccess/internal/trace"
)

// Value is a dictionary-encoded domain value, as served by the engine.
type Value = api.Value

// Sentinel errors. *APIError values returned by every method satisfy
// errors.Is against the first three, which mirror the facade's serving
// errors.
var (
	// ErrNotPrepared: no prepared query or cursor with that name/id
	// (HTTP 404).
	ErrNotPrepared = errors.New("client: not prepared")
	// ErrOutOfRange: a rank or range outside [0, |Q(I)|) (HTTP 416).
	ErrOutOfRange = errors.New("client: out of range")
	// ErrIntractable: the spec is on the intractable side of the
	// dichotomy and was registered strict (HTTP 422).
	ErrIntractable = errors.New("client: intractable")
	// ErrCursorGap: the server's cursor has moved past rows this Cursor
	// never received — the response that carried them was lost in
	// transport. The cursor stays failed; Pos is where to open a new one.
	ErrCursorGap = errors.New("client: cursor skipped rows")
)

// APIError is a non-2xx response's decoded {"error": ...} envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Is maps the v1 API's stable status codes to the package sentinels.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrNotPrepared:
		return e.Status == http.StatusNotFound
	case ErrOutOfRange:
		return e.Status == http.StatusRequestedRangeNotSatisfiable
	case ErrIntractable:
		return e.Status == http.StatusUnprocessableEntity
	}
	return false
}

// Spec is the textual ranked-access request registered under a name:
// Query, Order | SumBy, FDs, Shards, ShardBy. Only a coordinator reads
// ShardBy; every server ignores Shards (see api.Spec).
type Spec = api.Spec

// Options configures Dial.
type Options struct {
	// HTTPClient overrides the transport; http.DefaultClient when nil.
	HTTPClient *http.Client

	// RequestTimeout bounds one non-streaming request end to end,
	// retries and backoff sleeps included. 0 means
	// DefaultRequestTimeout; negative disables the deadline. Streaming
	// calls (Cursor.Stream) are exempt — cancel them via ctx.
	RequestTimeout time.Duration

	// MaxRetries is how many times a request the server shed with
	// 429/503 (or an idempotent GET that failed in transport) is retried
	// with capped exponential backoff and jitter, honoring the server's
	// Retry-After. 0 means DefaultMaxRetries; negative disables
	// retries.
	MaxRetries int

	// RetryBaseDelay and RetryMaxDelay shape the backoff; zero values
	// mean DefaultRetryBaseDelay and DefaultRetryMaxDelay.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
}

// Client talks to one server. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retry   retryPolicy
}

// Dial validates the base URL (e.g. "http://localhost:8080") and pings
// the server's /v1/stats endpoint to fail fast on an unreachable or
// foreign service. Pass a nil opts for defaults.
func Dial(ctx context.Context, base string, opts *Options) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)", base)
	}
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      http.DefaultClient,
		timeout: DefaultRequestTimeout,
		retry:   resolvePolicy(opts),
	}
	if opts != nil {
		if opts.HTTPClient != nil {
			c.hc = opts.HTTPClient
		}
		if opts.RequestTimeout != 0 {
			c.timeout = opts.RequestTimeout
			if c.timeout < 0 {
				c.timeout = 0
			}
		}
	}
	if _, err := c.Stats(ctx); err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", base, err)
	}
	return c, nil
}

// do sends one JSON request and decodes a 2xx body into out (skipped
// when out is nil); non-2xx responses come back as *APIError. A GET is
// replayed after a transport error; see send.
func (c *Client) do(ctx context.Context, method, path string, in, out any, accept string) (*http.Response, error) {
	return c.send(ctx, method, path, in, out, accept, method == http.MethodGet)
}

// send is do with the replay decision spelled out. A json.RawMessage
// in is sent as it is: a body that encoded itself.
//
// Requests the server sheds with 429/503 are retried with backoff (the
// server rejects those before processing, so writes are safe to
// resend). A transport error says nothing about whether the handler
// ran, so only a request that is idempotent — replay — is sent again
// after one: every GET but the one that advances a cursor.
// Non-streaming requests run under the client's RequestTimeout;
// streaming requests (accept != "") are bound only by the caller's ctx.
func (c *Client) send(ctx context.Context, method, path string, in, out any, accept string, replay bool) (*http.Response, error) {
	raw, ok := in.(json.RawMessage)
	if in != nil && !ok {
		var err error
		raw, err = json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encode request: %w", err)
		}
	}
	if accept == "" && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return nil, err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if sc, ok := trace.SpanContextOf(ctx); ok {
			req.Header.Set("traceparent", sc.Traceparent())
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if replay && attempt < c.retry.max && ctx.Err() == nil {
				if sleepCtx(ctx, c.retry.delay(attempt, nil)) == nil {
					continue
				}
			}
			return nil, err
		}
		if shouldRetryStatus(resp.StatusCode) && attempt < c.retry.max {
			d := c.retry.delay(attempt, resp)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if sleepCtx(ctx, d) == nil {
				continue
			}
			return nil, ctx.Err()
		}
		if resp.StatusCode/100 != 2 {
			defer resp.Body.Close()
			return nil, decodeAPIError(resp)
		}
		if accept != "" {
			// Streaming caller consumes and closes the body itself.
			return resp, nil
		}
		defer resp.Body.Close()
		if out != nil {
			if err := decodeBody(resp, out); err != nil {
				return nil, fmt.Errorf("client: decode response: %w", err)
			}
		}
		return resp, nil
	}
}

// maxPresize bounds (in bytes) what a Content-Length header alone makes
// decodeBody allocate. Every JSON body a server sends carries one (only
// NDJSON streams, which Cursor.Stream reads line by line, go unsized),
// and a 1 024-row page is ≈ 20 KB, far below it.
const maxPresize = 1 << 20

// decodeBody reads the whole body — to EOF, so the connection goes back
// to the transport's pool — into one buffer sized by its Content-Length,
// and decodes it into out. A body of internal/api that decodes itself
// (an access batch, a range window, a cursor page) is handed the bytes
// directly: its UnmarshalJSON checks them in the same pass that parses
// them, so json.Unmarshal's scan ahead of it would only read them twice.
func decodeBody(resp *http.Response, out any) error {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxPresize {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if u, ok := out.(json.Unmarshaler); ok {
		return u.UnmarshalJSON(buf.Bytes())
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// decodeAPIError turns a non-2xx response into an *APIError, falling
// back to the raw body when it is not the structured envelope.
func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var envelope api.Error
	msg := strings.TrimSpace(string(raw))
	if err := json.Unmarshal(raw, &envelope); err == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

// Stats is the body of GET /v1/stats: every counter the server exports,
// in the one type the server itself renders (internal/stats), so SDK
// and server cannot drift.
type Stats = stats.Snapshot

// Stats fetches the server's counters via GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	_, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st, "")
	return st, err
}

// Load appends rows to the named relation via POST /v1/instance/load
// and returns the count loaded.
func (c *Client) Load(ctx context.Context, relation string, rows [][]Value) (int, error) {
	var out api.LoadResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/instance/load", api.LoadRequest{Relation: relation, Rows: rows}, &out, "")
	return out.Loaded, err
}

// Write is one relation's rows in a batch mutation: rows to insert and
// rows to delete. Deletes of absent rows are idempotent no-ops.
type Write = api.Write

// WriteResult reports the outcome of one batch mutation: the Version
// the batch published and the rows Inserted and Deleted as requested.
type WriteResult = api.WriteResult

// Write applies a batch of relational mutations atomically via POST
// /v1/write: the whole group is durably logged and published as one
// new version. Prepared queries over untouched relations keep serving
// without rebuilding; queries over written relations absorb the batch
// as a delta overlay when possible.
func (c *Client) Write(ctx context.Context, writes ...Write) (WriteResult, error) {
	var out WriteResult
	_, err := c.do(ctx, http.MethodPost, "/v1/write", api.WriteRequest{Writes: writes}, &out, "")
	return out, err
}

// QueryInfo describes one server-side registration: the spec's text,
// the plan's Mode, Tractable, Verdict and sharding, Total = |Q(I)| and
// the instance Version it was computed at.
type QueryInfo = api.QueryInfo

// Prepared is a client-side handle to a named server registration.
type Prepared struct {
	c *Client
	// Name is the registered name all probes reference.
	Name string
	// Info is the registration snapshot from the last Register/Refresh.
	Info QueryInfo
}

// Register registers the spec under name via POST /v1/queries. The
// server parses and builds it once; later probes reference the name
// only. Re-registering a name replaces its spec.
func (c *Client) Register(ctx context.Context, name string, s Spec) (*Prepared, error) {
	return c.register(ctx, name, s, false)
}

// RegisterStrict is Register that fails with ErrIntractable when the
// spec lands on the intractable side of the paper's dichotomy instead
// of silently materializing.
func (c *Client) RegisterStrict(ctx context.Context, name string, s Spec) (*Prepared, error) {
	return c.register(ctx, name, s, true)
}

func (c *Client) register(ctx context.Context, name string, s Spec, strict bool) (*Prepared, error) {
	p := &Prepared{c: c, Name: name}
	_, err := c.do(ctx, http.MethodPost, "/v1/queries", api.RegisterRequest{Name: name, Spec: s, Strict: strict}, &p.Info, "")
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Queries lists the server's registrations via GET /v1/queries.
func (c *Client) Queries(ctx context.Context) ([]QueryInfo, error) {
	var out api.ListResponse
	_, err := c.do(ctx, http.MethodGet, "/v1/queries", nil, &out, "")
	return out.Queries, err
}

// Prepared returns a handle to an existing registration, fetching its
// current info; it fails with ErrNotPrepared when the name is unknown.
func (c *Client) Prepared(ctx context.Context, name string) (*Prepared, error) {
	p := &Prepared{c: c, Name: name}
	if err := p.Refresh(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// Evict removes a registration via DELETE /v1/queries/{name}.
func (c *Client) Evict(ctx context.Context, name string) error {
	_, err := c.do(ctx, http.MethodDelete, "/v1/queries/"+url.PathEscape(name), nil, nil, "")
	return err
}

// Refresh re-fetches the registration info (total, mode, version).
func (p *Prepared) Refresh(ctx context.Context) error {
	_, err := p.c.do(ctx, http.MethodGet, p.path(""), nil, &p.Info, "")
	return err
}

func (p *Prepared) path(suffix string) string {
	return "/v1/queries/" + url.PathEscape(p.Name) + suffix
}

// Answer is one probed index K: the head Tuple, or the server's
// per-index error string in Err (e.g. "out of bound").
type Answer = api.Answer

// Access probes a batch of global ranks by name. Per-index failures
// land in the returned answers without failing the batch; the answers'
// tuples share one backing array, each clipped to its own capacity.
func (p *Prepared) Access(ctx context.Context, ks ...int64) ([]Answer, error) {
	var out api.AccessResponse
	_, err := p.c.do(ctx, http.MethodPost, p.path("/access"), json.RawMessage(api.AppendAccessRequest(nil, ks)), &out, "")
	return out.Answers, err
}

// Range fetches the head tuples of global ranks k0 ≤ k < k1 in one
// batched request.
func (p *Prepared) Range(ctx context.Context, k0, k1 int64) ([][]Value, error) {
	var out api.RangeResponse
	_, err := p.c.do(ctx, http.MethodPost, p.path("/range"), api.RangeRequest{K0: k0, K1: k1}, &out, "")
	return out.Tuples, err
}

// Select answers the one-shot selection problem for rank k (no
// structure is built or cached server-side).
func (p *Prepared) Select(ctx context.Context, k int64) ([]Value, error) {
	var out api.SelectResponse
	_, err := p.c.do(ctx, http.MethodPost, p.path("/select"), api.SelectRequest{K: k}, &out, "")
	return out.Tuple, err
}

// Count returns |Q(I)| for the registered query.
func (p *Prepared) Count(ctx context.Context) (int64, error) {
	var out api.CountResponse
	_, err := p.c.do(ctx, http.MethodPost, p.path("/count"), struct{}{}, &out, "")
	return out.Count, err
}

// Classification is the verdict of one of the paper's dichotomies:
// Tractable, the Bound, the rendered Verdict and, when a disruptive
// trio is the certificate, the Trio.
type Classification = api.Classification

// Classify runs the named dichotomy problem ("direct-access-lex",
// "selection-lex", "direct-access-sum", "selection-sum"; empty means
// direct-access-lex) on the registered spec.
func (p *Prepared) Classify(ctx context.Context, problem string) (Classification, error) {
	var out Classification
	_, err := p.c.do(ctx, http.MethodPost, p.path("/classify"), api.ClassifyRequest{Problem: problem}, &out, "")
	return out, err
}
