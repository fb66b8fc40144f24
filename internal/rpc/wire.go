// Package rpc is the cluster's wire protocol: a stdlib-only framed
// binary protocol over TCP carrying the typed calls a coordinator
// issues against shard nodes (Prepare/Count/Range/Stats/Health, and
// the batched AccessBatch/RankBatch a coordinator's rank rounds are made
// of — see Client and Backend).
//
// Connection layout. A connection opens with an 8-byte handshake in
// each direction (magic, protocol version); every subsequent exchange
// is one request frame followed by one response frame. A frame is
//
//	uint32 length | uint32 crc32c(payload) | payload
//
// little-endian, with the CRC (Castagnoli) covering the payload only.
// A request payload is
//
//	uint64 reqID | uint8 kind | uint32 deadlineMillis | body
//
// and a response payload echoes the request id and kind followed by a
// status byte and the body (an error message for non-OK statuses). The
// deadline is relative (milliseconds left until the caller gives up),
// so no clock synchronization between peers is assumed; 0 means no
// deadline. Connections carry one request at a time — pipelining would
// complicate failure attribution for no win at the coordinator's
// concurrency (it opens more connections instead, see Client's pool).
//
// Frame I/O. A frame costs each side one system call. The writer
// encodes the payload behind eight reserved bytes (enc.frame), and
// writeFrame fills length and CRC into them and hands the whole frame to
// ONE Write: two Writes are two TCP transmits and two wake-ups of the
// peer. Both ends read through a bufio.Reader, so header and payload of
// a frame that arrived together cost one read. The buffers belong to
// the connection: because a connection carries one request at a time,
// the client's pooled connection and the server's handler each keep one
// read and one write buffer and reuse them for every call (dropped when
// a call grew one past keepBuf, so a large Range cannot pin memory). A
// payload therefore aliases its connection's buffer and dies with the
// next frame; every dec reader copies what it returns, so a decoded
// value never does — which is why the client decodes a response BEFORE
// it returns the connection to the pool. None of this is visible to the
// peer: the bytes of a frame are the ones version 2 introduced, in the
// same order, so a peer that splits its frames or reads them unbuffered
// interoperates in both directions.
//
// Versioning. ProtoVersion is bumped on any incompatible change to the
// framing or message bodies. The handshake negotiates: the client
// leads with its own version, the server replies with min(client,
// server) and the connection speaks that version — so an old
// coordinator keeps working against upgraded shard nodes for as long
// as its version is at or above minProtoVersion; a peer below the
// floor is refused at connect time (the server closes without
// replying). See CONTRIBUTING.md for the bump policy (it mirrors the
// snapshot/WAL format rules).
//
// Version history:
//
//	1 — initial framed protocol (PR 9). Never shipped to a peer;
//	    below the floor since PR 14.
//	2 — request payloads gain a fixed 25-byte trace-context field
//	    (flags, trace id, span id; all-zero = untraced) between
//	    deadlineMillis and the body, so distributed traces stitch
//	    across the coordinator/shard boundary. Below the floor since
//	    PR 20.
//	3 — the single-answer kinds 3 (rank) and 4 (access) are gone: a
//	    node answers them like any kind it does not know. No frame or
//	    body of the remaining kinds changed; the bump exists so that a
//	    v2 coordinator, which may still send them, is refused at
//	    connect instead of failing mid-query. Below the floor since
//	    version 4.
//	4 — the KindAccessBatch response is the answers block followed by
//	    an i64s block of ranks: ranks[i*len(Owned)+j] is owned shard
//	    j's count of answers strictly below answer i (an answer's own
//	    shard reports its position), so the node a rank round takes
//	    its pivots from prices them in the same call. The floor rose
//	    with it: like 3, the bump is not rolling — restart a cluster's
//	    coordinator and nodes together.
//
// Adding a call kind is NOT a version bump: no existing frame or body
// changes, and a node that predates the kind answers it with the
// bad-request status (3) every client already decodes into a
// BadRequestError. KindAccessBatch and KindRankBatch (PR 15) joined
// version 2 this way. Removing a kind or changing a body IS one (see
// versions 3 and 4).
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"rankedaccess/internal/metrics"
	"rankedaccess/internal/order"
	"rankedaccess/internal/trace"
)

// ProtoVersion is the newest wire-protocol version this build speaks.
// Bump it on ANY incompatible framing or message change.
const ProtoVersion = 4

// minProtoVersion is the oldest version this build still serves; the
// negotiated connection version always lands in [minProtoVersion,
// ProtoVersion].
const minProtoVersion = 4

// magic opens every handshake; "RARC" = RankedAccess RPC.
var magic = [4]byte{'R', 'A', 'R', 'C'}

// maxFrame bounds a frame payload; anything larger is a protocol
// error (it would let one bad peer make us allocate without bound).
const maxFrame = 64 << 20

// castagnoli is the CRC-32C table shared by all frame writers/readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind identifies a typed call.
type Kind uint8

const (
	// KindPrepare builds (or reuses) the owned per-shard structures
	// for a spec and returns their totals and realized order.
	KindPrepare Kind = 1
	// KindCount counts the owned shards' answers for a query.
	KindCount Kind = 2
	// Kinds 3 and 4 were the single-answer rank and access of versions
	// 1–2; the numbers stay retired.
	// KindRange returns one shard's local answers k0 ≤ k < k1.
	KindRange Kind = 5
	// KindStats returns node-level counters.
	KindStats Kind = 6
	// KindHealth reports node readiness (the prober's call).
	KindHealth Kind = 7
	// KindAccessBatch returns the local answers at a list of (shard,
	// position) pairs over the node's owned shards — the pivots of one
	// rank round, at most MaxPivots of them — each priced on every
	// owned shard (see decodeAccessBatchResp).
	KindAccessBatch Kind = 8
	// KindRankBatch prices a list of answers, at most MaxPivots, on
	// every owned shard (answers strictly below each, the paper's Rank
	// query): one call for a whole rank round.
	KindRankBatch Kind = 9

	// numKinds sizes every per-kind table; kinds are 1 … numKinds-1.
	numKinds = 10
)

// MaxPivots caps the positions of one KindAccessBatch and the answers
// of one KindRankBatch: decoders reject a longer list before allocating
// for it, and nodes refuse to serve one.
const MaxPivots = 256

// kindNames maps kinds to the method label used in metrics and span
// names. The label names the operation, not the encoding: the batch
// kinds count under "access" and "rank", the labels their single-answer
// forms had.
var kindNames = map[Kind]string{
	KindPrepare:     "prepare",
	KindCount:       "count",
	KindRange:       "range",
	KindStats:       "stats",
	KindHealth:      "health",
	KindAccessBatch: "access",
	KindRankBatch:   "rank",
}

// KindName returns the metrics label of a kind ("?" when unknown).
func KindName(k Kind) string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "?"
}

// methodCounters registers one counter per kind, labeled with its
// method.
func methodCounters(reg *metrics.Registry, name, help string, labels ...string) [numKinds]*metrics.Counter {
	var out [numKinds]*metrics.Counter
	for kind, method := range kindNames {
		out[kind] = reg.Counter(name, help, append(labels[:len(labels):len(labels)], "method", method)...)
	}
	return out
}

// Response status bytes. Statuses carrying a well-known engine
// sentinel decode back to that exact sentinel on the client, so the
// coordinator's error handling (and its HTTP error bodies) match the
// single-node path byte for byte.
const (
	statusOK          = 0
	statusOutOfBound  = 1 // access.ErrOutOfBound
	statusNotAnAnswer = 2 // access.ErrNotAnAnswer
	statusBadRequest  = 3 // request-level failure, message attached
	statusInternal    = 4 // node-side failure, message attached
	statusStale       = 5 // ErrStaleVersion
)

// ErrUnavailable reports that a peer could not be reached (dial,
// write, or read failed) even after the client's single retry. The
// serving layer maps it to 503 + Retry-After.
var ErrUnavailable = errors.New("rpc: peer unavailable")

// ErrStaleVersion reports that the shard node's instance changed
// between Prepare and a probe, so the coordinator's cached totals no
// longer describe the node's data. Re-registering the query recovers.
var ErrStaleVersion = errors.New("rpc: shard node instance version changed since prepare; re-register the query")

// ErrBadFrame reports a framing-level protocol violation (bad magic,
// version mismatch, CRC failure, oversized frame). The connection
// carrying it is poisoned and must be closed.
var ErrBadFrame = errors.New("rpc: protocol error")

// BadRequestError is a request-level failure a node reports back to
// the coordinator (malformed spec, unknown shard index, FD specs).
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

// RemoteError wraps a node-side internal failure: the call reached
// the node and failed there, so retrying another connection is
// pointless.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc: remote: " + e.Msg }

// writeHandshake sends the 8-byte magic+version preamble carrying the
// given version (the client's own, or the server's negotiated reply).
func writeHandshake(w io.Writer, version uint16) error {
	var b [8]byte
	copy(b[:4], magic[:])
	binary.LittleEndian.PutUint16(b[4:6], version)
	_, err := w.Write(b[:])
	return err
}

// readHandshake consumes the peer's preamble and returns the version
// it carries; callers validate the version against their role's rules
// (server: clamp to min(peer, own); client: accept what the server
// negotiated down to).
func readHandshake(r io.Reader) (uint16, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if [4]byte(b[:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadFrame, b[:4])
	}
	return binary.LittleEndian.Uint16(b[4:6]), nil
}

// reqHeader is the fixed prefix of every request payload: what the
// server must know before it can pick the body's decoder.
type reqHeader struct {
	id             uint64
	kind           Kind
	deadlineMillis uint32
	// trace is the fixed 25-byte v2 field (flags, trace id, parent span
	// id); all-zero — an invalid SpanContext — means untraced.
	trace trace.SpanContext
}

func (h *reqHeader) encode(e *enc) {
	e.u64(h.id)
	e.u8(uint8(h.kind))
	e.u32(h.deadlineMillis)
	e.u8(h.trace.Flags)
	e.b = append(e.b, h.trace.TraceID[:]...)
	e.b = append(e.b, h.trace.SpanID[:]...)
}

func decodeReqHeader(d *dec) reqHeader {
	h := reqHeader{id: d.u64(), kind: Kind(d.u8()), deadlineMillis: d.u32()}
	h.trace.Flags = d.u8()
	if d.bad || d.off+16+8 > len(d.b) {
		d.fail()
		return h
	}
	d.off += copy(h.trace.TraceID[:], d.b[d.off:])
	d.off += copy(h.trace.SpanID[:], d.b[d.off:])
	return h
}

// frameHeader is the length+CRC prefix of a frame.
const frameHeader = 8

// keepBuf is the largest buffer a connection keeps between calls, and
// the most readFrame allocates ahead of the bytes that have arrived.
const keepBuf = 64 << 10

// kept returns b emptied for the connection's next call, or nil when
// the last call grew it past keepBuf.
func kept(b []byte) []byte {
	if cap(b) > keepBuf {
		return nil
	}
	return b[:0]
}

// writeFrame sends one frame built by enc.frame: it fills the reserved
// header with the payload's length and CRC and issues a single Write.
func writeFrame(w io.Writer, frame []byte) error {
	payload := frame[frameHeader:]
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrBadFrame, len(payload), maxFrame)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame into buf's storage, verifying length bound
// and CRC, and returns the payload — valid until buf's next use. The
// claimed length is trusted only as far as bytes arrive: the buffer
// grows by at most max(keepBuf, what was read so far) per step, so a
// bare header claiming maxFrame costs keepBuf, not 64 MB.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf[:0], err
	}
	n, want := int(binary.LittleEndian.Uint32(hdr[0:4])), binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return buf[:0], fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrBadFrame, n, maxFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), keepBuf))
		if cap(buf)-len(buf) < step {
			buf = append(make([]byte, 0, len(buf)+step), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	if got := crc32.Checksum(buf, castagnoli); got != want {
		return buf, fmt.Errorf("%w: payload CRC %08x, want %08x", ErrBadFrame, got, want)
	}
	return buf, nil
}

// enc builds a little-endian message body.
type enc struct{ b []byte }

// frame empties e, keeping its storage, and reserves the header that
// writeFrame fills in; what the caller appends next is the payload.
func (e *enc) frame() { e.b = append(e.b[:0], make([]byte, frameHeader)...) }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) strs(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *enc) ints(vs []int) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i64(int64(v))
	}
}

func (e *enc) i64s(vs []int64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i64(v)
	}
}

// answers writes a block of equal-width answers: width, count, then
// the values row by row. The width is the first row's; callers hand in
// rows of one width.
func (e *enc) answers(rows []order.Answer) {
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	e.u32(uint32(width))
	e.u32(uint32(len(rows)))
	for _, row := range rows {
		for _, v := range row {
			e.i64(int64(v))
		}
	}
}

// dec consumes a little-endian message body with sticky error state:
// any out-of-bounds or over-limit read marks the decoder bad and every
// subsequent read returns zero values, so codecs can decode straight
// through and check err() once.
type dec struct {
	b   []byte
	off int
	bad bool
}

func (d *dec) fail() { d.bad = true }

func (d *dec) err() error {
	if d.bad {
		return fmt.Errorf("%w: truncated or malformed message", ErrBadFrame)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(d.b)-d.off)
	}
	return nil
}

func (d *dec) u8() uint8 {
	if d.bad || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.bad || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.bad || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

// count reads a length prefix for elements of at least elemSize bytes,
// bounding it by the remaining payload so hostile lengths cannot force
// huge allocations.
func (d *dec) count(elemSize int) int {
	n := int(d.u32())
	if d.bad {
		return 0
	}
	if n < 0 || n*elemSize > len(d.b)-d.off {
		d.fail()
		return 0
	}
	return n
}

func (d *dec) str() string {
	n := d.count(1)
	if d.bad {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) strs() []string {
	n := d.count(4)
	if d.bad || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *dec) ints() []int {
	n := d.count(8)
	if d.bad || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		v := d.i64()
		if v < math.MinInt32 || v > math.MaxInt32 {
			d.fail()
			return nil
		}
		out[i] = int(v)
	}
	return out
}

func (d *dec) i64s() []int64 {
	n := d.count(8)
	if d.bad || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.i64()
	}
	return out
}

// answers reads a block written by enc.answers, of at most limit rows.
// Width and count are checked against the limit and the remaining
// payload before anything is allocated; the rows share one backing
// array.
func (d *dec) answers(limit int) []order.Answer {
	width, count := int(d.u32()), int(d.u32())
	if d.bad || count == 0 {
		return nil
	}
	if count > limit || width == 0 || width > (len(d.b)-d.off)/8/count {
		d.fail()
		return nil
	}
	out := make([]order.Answer, count)
	flat := make([]int64, count*width)
	for i := range flat {
		flat[i] = d.i64()
	}
	for i := range out {
		out[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}
