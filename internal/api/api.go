// Package api declares every request and response body of the /v1 HTTP
// surface exactly once.
//
// internal/serve decodes and encodes these types, the client SDK
// aliases them (client.Spec, client.QueryInfo, client.Answer, …), and
// the engine and the snapshot format alias the ones they share
// (engine.Spec, engine.CheckpointInfo, engine.RestoreInfo,
// snapshot.SpecMeta, snapshot.Info) — so no layer re-declares a body
// and none copies one field by field into the next layer's mirror.
// GET /v1/stats is the one body declared elsewhere, in internal/stats,
// under the same rule.
//
// The leaf rule: this package imports no package of this module, so
// importing the SDK does not pull in the engine. Field order is the JSON
// key order. Under the /v1 compatibility policy a new field is one line
// here — additive, appended last in its struct — and a reviewed diff of
// internal/serve/testdata/wire.golden; a key is never renamed, retyped
// or reordered. TestWireTypesDeclaredOnce keeps
// JSON tags out of internal/serve and client, FuzzRequestBodies feeds
// every request type below through the server's decoder.
//
// Rows have one codec. Every [][]Value that crosses the wire — the
// tuples of a range window and a cursor page, the rows of a load and a
// write, an NDJSON line — is written and read by rows.go, in the bytes
// and the language of encoding/json, without reflection. The three
// bodies a probe answers with (RangeResponse, CursorPage — mostly rows
// — and AccessResponse, whose answers carry one row each) also encode
// and decode themselves around it, and the SDK append-encodes the
// AccessRequest it sends (body.go); FuzzRows holds all of it to
// encoding/json.
//
// A body of the by-name generation (/v1/queries/{name}/…) carries only
// the probe's arguments; the one-shot generation (/v1/instance/…)
// embeds it next to the Spec. The two are distinct types so that a
// by-name body carrying spec fields stays a 400 under the server's
// DisallowUnknownFields.
package api

// Value is a dictionary-encoded domain value.
type Value = int64

// Spec is the textual ranked-access request: exactly the inputs a
// remote caller can send; the engine parses and validates them.
type Spec struct {
	// Query is the conjunctive query text, e.g. "Q(x, z) :- R(x, y), S(y, z)".
	Query string `json:"query"`
	// Order is a lexicographic order such as "x, z desc" (possibly
	// partial, possibly empty). Ignored when SumBy is set.
	Order string `json:"order,omitempty"`
	// SumBy, when non-empty, requests ranking by the sum of the named
	// variables' values (the identity-weight SUM order).
	SumBy []string `json:"sum_by,omitempty"`
	// FDs are unary functional dependencies "R: x -> y" to refine the
	// classification (§8).
	FDs []string `json:"fds,omitempty"`
	// Shards is accepted for compatibility and ignored: sharding
	// happens only across nodes, where the coordinator's cluster
	// configuration fixes the shard count, and a local engine serves
	// every spec from one structure.
	Shards int `json:"shards,omitempty"`
	// ShardBy optionally names a coordinator's partition variable,
	// which must be a free variable of the query. Empty partitions a
	// lex spec on the first variable of its order, and a SUM or
	// order-less spec on the free variable appearing in the most atoms.
	// A local engine ignores it.
	ShardBy string `json:"shard_by,omitempty"`
}

// ShardEcho is the response fragment reporting how a coordinator
// sharded a request — the cluster's partitioning, not the spec's wish —
// omitted entirely on a local engine. Nothing sets ShardNote; its key
// stays on the wire for compatibility (see CONTRIBUTING.md).
type ShardEcho struct {
	Shards    int    `json:"shards,omitempty"`
	ShardBy   string `json:"shard_by,omitempty"`
	ShardNote string `json:"shard_note,omitempty"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}

// LoadRequest is the body of POST /v1/instance/load.
type LoadRequest struct {
	Relation string `json:"relation"`
	Rows     Rows   `json:"rows"`
}

// LoadResponse reports the rows appended and the version they published.
type LoadResponse struct {
	Relation string `json:"relation"`
	Loaded   int    `json:"loaded"`
	Version  uint64 `json:"version"`
}

// AccessRequest probes a batch of global ranks.
type AccessRequest struct {
	Ks []int64 `json:"ks"`
}

// InstanceAccessRequest is the body of POST /v1/instance/access.
type InstanceAccessRequest struct {
	Spec
	AccessRequest
}

// Answer is one probed index: the head tuple, or the per-index error
// string ("out of bound", "not an answer").
type Answer struct {
	K     int64   `json:"k"`
	Tuple []Value `json:"tuple,omitempty"`
	Err   string  `json:"error,omitempty"`
}

// AccessHeader is everything of an access response but its answers:
// the plan's outcome.
type AccessHeader struct {
	Total     int64  `json:"total"`
	Mode      string `json:"mode"`
	Tractable bool   `json:"tractable"`
	Verdict   string `json:"verdict"`
	ShardEcho
}

// AccessResponse carries the plan's outcome and one Answer per index.
// It is the decoded form; the server encodes the same body from a
// FlatAccess (see body.go).
type AccessResponse struct {
	AccessHeader
	Answers []Answer `json:"answers"`
}

// RangeRequest asks for the head tuples of global ranks K0 ≤ k < K1.
type RangeRequest struct {
	K0 int64 `json:"k0"`
	K1 int64 `json:"k1"`
}

// InstanceRangeRequest is the body of POST /v1/instance/range.
type InstanceRangeRequest struct {
	Spec
	RangeRequest
}

// RangeHeader is everything of a range response but its rows: the
// plan's outcome and the window's first rank K0.
type RangeHeader struct {
	Total     int64  `json:"total"`
	Mode      string `json:"mode"`
	Tractable bool   `json:"tractable"`
	K0        int64  `json:"k0"`
	ShardEcho
}

// RangeResponse carries the window's head tuples, first rank K0. It is
// the decoded form; the server encodes the same body from a FlatRange
// (see body.go).
type RangeResponse struct {
	RangeHeader
	Tuples Rows `json:"tuples"`
}

// SelectRequest asks the one-shot selection problem for rank K.
type SelectRequest struct {
	K int64 `json:"k"`
}

// InstanceSelectRequest is the body of POST /v1/instance/select.
type InstanceSelectRequest struct {
	Spec
	SelectRequest
}

// SelectResponse is the K-th answer's head tuple.
type SelectResponse struct {
	K     int64   `json:"k"`
	Tuple []Value `json:"tuple"`
}

// ClassifyRequest names one of the paper's dichotomies:
// "direct-access-lex" (the default when empty), "selection-lex",
// "direct-access-sum" or "selection-sum".
type ClassifyRequest struct {
	Problem string `json:"problem,omitempty"`
}

// InstanceClassifyRequest is the body of POST /v1/instance/classify.
type InstanceClassifyRequest struct {
	Spec
	ClassifyRequest
}

// Classification is the verdict of one of the paper's dichotomies.
type Classification struct {
	Tractable bool     `json:"tractable"`
	Bound     string   `json:"bound"`
	Verdict   string   `json:"verdict"`
	Trio      []string `json:"trio,omitempty"`
}

// CountRequest is the body of POST /v1/instance/count (the by-name
// count takes no body).
type CountRequest struct {
	Query   string `json:"query"`
	Shards  int    `json:"shards,omitempty"`
	ShardBy string `json:"shard_by,omitempty"`
}

// CountResponse is |Q(I)| and, from a coordinator, how the count was
// sharded.
type CountResponse struct {
	Count int64 `json:"count"`
	ShardEcho
}

// RegisterRequest registers a spec under a name. With Strict set,
// registration fails (422) unless the plan landed on the tractable side
// of the paper's dichotomy — for callers that would rather know than
// silently pay Θ(|Q(I)|) materialization.
type RegisterRequest struct {
	Name string `json:"name"`
	Spec
	Strict bool `json:"strict,omitempty"`
}

// QueryInfo describes one registration. It echoes the spec's text but
// the plan's sharding, so it cannot embed Spec whole: encoding/json
// silently drops both of two same-depth duplicate keys.
type QueryInfo struct {
	Name      string   `json:"name"`
	Gen       uint64   `json:"gen"`
	Query     string   `json:"query"`
	Order     string   `json:"order,omitempty"`
	SumBy     []string `json:"sum_by,omitempty"`
	FDs       []string `json:"fds,omitempty"`
	Mode      string   `json:"mode"`
	Tractable bool     `json:"tractable"`
	Verdict   string   `json:"verdict,omitempty"`
	Total     int64    `json:"total"`
	Version   uint64   `json:"version"`
	ShardEcho
}

// ListResponse is the body of GET /v1/queries, sorted by name.
type ListResponse struct {
	Queries []QueryInfo `json:"queries"`
}

// CursorRequest opens a server-side cursor at global rank Start.
type CursorRequest struct {
	Start int64 `json:"start,omitempty"`
}

// CursorResponse describes a freshly opened cursor: its opaque token,
// the registration it scans, and where in how many rows it stands.
type CursorResponse struct {
	Cursor string `json:"cursor"`
	Query  string `json:"query"`
	Total  int64  `json:"total"`
	Pos    int64  `json:"pos"`
	Width  int    `json:"width"`
}

// PageHeader is everything of a cursor page but its rows; Pos is the
// rank after the page's last row.
type PageHeader struct {
	Cursor string `json:"cursor"`
	Query  string `json:"query"`
	Pos    int64  `json:"pos"`
	Done   bool   `json:"done"`
}

// CursorPage is one JSON batch of GET /v1/cursors/{id}/next, decoded;
// the server encodes the same body from a FlatPage (see body.go).
type CursorPage struct {
	PageHeader
	Tuples Rows `json:"tuples"`
}

// Write is one relation's rows in a write batch. Deletes apply after
// inserts of the same entry (they are separate mutations in one atomic
// batch; deleting a row the same batch inserted removes it); deletes of
// absent rows are idempotent no-ops.
type Write struct {
	Relation string `json:"relation"`
	Insert   Rows   `json:"insert,omitempty"`
	Delete   Rows   `json:"delete,omitempty"`
}

// WriteRequest is the body of POST /v1/write: one atomic batch.
type WriteRequest struct {
	Writes []Write `json:"writes"`
}

// WriteResult reports the outcome of one batch mutation.
type WriteResult struct {
	// Version is the engine version the batch published (the current
	// version when the batch was empty).
	Version uint64 `json:"version"`
	// Inserted and Deleted count rows requested, not rows that changed
	// the instance.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
}

// SnapshotInfo reports what a checkpoint wrote (POST /v1/snapshots).
type SnapshotInfo struct {
	// Name is the snapshot file name within the checkpoint directory;
	// pass it to restore.
	Name string `json:"name"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
	// Version is the instance version the snapshot captured.
	Version uint64 `json:"version"`
	// Structures counts persisted access structures; Skipped counts
	// cached structures that cannot be persisted (sharded, FD-extended
	// or overlaid) and will rebuild on demand after a warm start.
	Structures int `json:"structures"`
	Skipped    int `json:"skipped,omitempty"`
	// Registrations counts persisted prepared-query registrations.
	Registrations int `json:"registrations"`
}

// SnapshotFile describes one snapshot file in a directory listing
// (GET /v1/snapshots), from the name and file size alone.
type SnapshotFile struct {
	Name            string `json:"name"`
	Bytes           int64  `json:"bytes"`
	EngineVersion   uint64 `json:"engine_version"`
	CreatedUnixNano int64  `json:"created_unix_nano"`
}

// SnapshotList lists a directory's snapshots, newest first.
type SnapshotList struct {
	Snapshots []SnapshotFile `json:"snapshots"`
}

// RestoreInfo reports what an open or a live restore loaded.
type RestoreInfo struct {
	// Name is the snapshot file name loaded.
	Name string `json:"name"`
	// Version is the instance version after the load (the persisted
	// version for a fresh open; strictly newer than both the persisted
	// and the pre-restore version for a live restore).
	Version uint64 `json:"version"`
	// Tuples is the restored instance size.
	Tuples int `json:"tuples"`
	// Structures counts access structures rehydrated into the cache;
	// Registrations counts rehydrated prepared queries.
	Structures    int `json:"structures"`
	Registrations int `json:"registrations"`
}
