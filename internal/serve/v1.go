// v1.go implements the versioned prepared-query API.
//
// The paper's economics — expensive preprocessing, O(log n) probes —
// want the classic prepared-statement shape: register a (query, order,
// FDs) spec once under a name, then probe and stream it by name with
// zero per-request re-parsing. The v1 surface is exactly that:
//
//	POST   /v1/queries                     register {"name", "query", ...}
//	GET    /v1/queries                     list registrations
//	GET    /v1/queries/{name}              one registration
//	DELETE /v1/queries/{name}              evict
//	POST   /v1/queries/{name}/access       {"ks": [...]}
//	POST   /v1/queries/{name}/range        {"k0", "k1"}
//	POST   /v1/queries/{name}/select       {"k"}
//	POST   /v1/queries/{name}/count        {}
//	POST   /v1/queries/{name}/classify     {"problem"}
//	POST   /v1/queries/{name}/cursor       {"start"} → opaque cursor token
//	GET    /v1/cursors/{id}/next?n=N       next batch (JSON, or NDJSON
//	                                       when Accept: application/x-ndjson)
//	DELETE /v1/cursors/{id}                close the cursor
//
// Sentinel errors map to stable status codes (statusFor, in serve.go,
// is the whole table): an unknown name or cursor is 404
// (engine.ErrNotPrepared), an out-of-range index is 416
// (access.ErrOutOfBound), and an intractable spec registered with
// "strict": true is 422 (access.ErrIntractable). Mutations never orphan
// a cursor — the MVCC engine pins every cursor to its epoch — so 410
// Gone is produced only on a coordinator, for a shard node whose data
// moved past the prepared version (rpc.ErrStaleVersion). A request that
// runs out of deadline inside the engine is 503 with Retry-After (see
// fail).
//
// The hot probe endpoints (/access, /range) coalesce: concurrent
// identical requests against one epoch share a single probe + encode,
// and hot window bodies serve straight from the coalescer's cache
// (keys embed the epoch version, so a write is automatically a miss).
//
// NDJSON streaming writes one JSON row array per line, encoded
// incrementally from pooled buffers and flushed in chunks, so a client
// can consume a multi-million-row window without the server ever
// materializing it. Each chunk write carries a deadline, so a stalled
// reader loses its stream instead of pinning the cursor's epoch.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/values"
)

// describe renders one registration: the spec's text, the plan's
// outcome.
func describe(id engine.PreparedID, spec engine.Spec, plan engine.Plan, total int64, version uint64) api.QueryInfo {
	return api.QueryInfo{
		Name:      id.Name,
		Gen:       id.Gen,
		Query:     spec.Query,
		Order:     spec.Order,
		SumBy:     spec.SumBy,
		FDs:       spec.FDs,
		Mode:      string(plan.Mode),
		Tractable: plan.Tractable,
		Verdict:   plan.Verdict.String(),
		Total:     total,
		Version:   version,
		ShardEcho: shardInfo(plan),
	}
}

func pqInfo(pq *engine.PreparedQuery, h *engine.Handle, version uint64) api.QueryInfo {
	return describe(pq.ID(), pq.Spec(), h.Plan, h.Total(), version)
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Strict {
		// Plan BEFORE registering, so a strict rejection changes no
		// registry state (an existing registration of the name keeps
		// serving). Tractability depends only on (query, order, FDs),
		// and the built structure lands in the engine cache, so the
		// Register below reuses it.
		h, err := s.e.PrepareCtx(r.Context(), req.Spec)
		if err != nil {
			failErr(w, err)
			return
		}
		if !h.Plan.Tractable {
			failErr(w, fmt.Errorf("serve: strict registration of %q refused: %s: %w",
				req.Name, h.Plan.Verdict.String(), access.ErrIntractable))
			return
		}
	}
	pq, err := s.e.Register(req.Name, req.Spec)
	if err != nil {
		failErr(w, err)
		return
	}
	h, err := pq.AcquireCtx(r.Context())
	if err != nil {
		failErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, pqInfo(pq, h, s.e.Version()))
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := s.e.ListPrepared()
	resp := api.ListResponse{Queries: make([]api.QueryInfo, len(infos))}
	for i, pi := range infos {
		resp.Queries[i] = describe(pi.ID, pi.Spec, pi.Plan, pi.Total, pi.Version)
	}
	reply(w, resp)
}

// prepared resolves {name} or writes a 404.
func (s *server) prepared(w http.ResponseWriter, r *http.Request) (*engine.PreparedQuery, bool) {
	pq, err := s.e.Prepared(r.PathValue("name"))
	if err != nil {
		failErr(w, err)
		return nil, false
	}
	return pq, true
}

func (s *server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	pq, ok := s.prepared(w, r)
	if !ok {
		return
	}
	h, err := s.acquireRead(r.Context(), pq)
	if err != nil {
		failErr(w, err)
		return
	}
	reply(w, pqInfo(pq, h, h.Version()))
}

func (s *server) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.e.Evict(name) {
		failErr(w, fmt.Errorf("%w: %q", engine.ErrNotPrepared, name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleV1Count(w http.ResponseWriter, r *http.Request) {
	pq, ok := s.prepared(w, r)
	if !ok {
		return
	}
	// The prepared handle already knows |Q(I)| for the current version
	// in O(1) — no re-parse, no counting pass (and, unlike
	// /v1/instance/count, no free-connex requirement: the materialized
	// fallback counts too).
	h, err := s.acquireRead(r.Context(), pq)
	if err != nil {
		failErr(w, err)
		return
	}
	reply(w, api.CountResponse{Count: h.Total(), ShardEcho: shardInfo(h.Plan)})
}

func (s *server) handleCursorCreate(w http.ResponseWriter, r *http.Request) {
	pq, ok := s.prepared(w, r)
	if !ok {
		return
	}
	var req api.CursorRequest
	if !s.decode(w, r, &req) {
		return
	}
	cur, err := pq.Cursor()
	if err != nil {
		failErr(w, err)
		return
	}
	if _, err := cur.Seek(req.Start, io.SeekStart); err != nil {
		failErr(w, err)
		return
	}
	sc, err := s.st.create(pq.ID().Name, cur)
	if err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.CursorResponse{
		Cursor: sc.id, Query: sc.query, Total: cur.Total(), Pos: cur.Pos(), Width: cur.Width(),
	})
}

// defaultCursorBatch is the /next batch size when ?n= is absent.
const defaultCursorBatch = 1024

// ndjsonChunk rows are encoded and flushed per write in streaming mode.
const ndjsonChunk = 1024

// cursorByID resolves {id} or writes a 404.
func (s *server) cursorByID(w http.ResponseWriter, r *http.Request) (*serverCursor, bool) {
	id := r.PathValue("id")
	sc := s.st.get(id)
	if sc == nil {
		failErr(w, fmt.Errorf("%w: cursor %q", engine.ErrNotPrepared, id))
		return nil, false
	}
	return sc, true
}

func (s *server) handleCursorNext(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.cursorByID(w, r)
	if !ok {
		return
	}
	n := defaultCursorBatch
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad batch size %q", raw))
			return
		}
		n = v
	}
	if n > maxRange {
		n = maxRange
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if wantsNDJSON(r) {
		s.streamNDJSON(sc, w, n)
		return
	}
	flatP := tuplePool.Get().(*[]values.Value)
	flat, emitted, err := sc.cur.NextN((*flatP)[:0], n)
	if err != nil {
		putTupleBuf(flatP, flat)
		failErr(w, err)
		return
	}
	reply(w, api.FlatPage{
		PageHeader: api.PageHeader{
			Cursor: sc.id, Query: sc.query,
			Pos: sc.cur.Pos(), Done: sc.cur.Pos() >= sc.cur.Total(),
		},
		Tuples: api.FlatRows{Flat: flat, Width: sc.cur.Width(), N: emitted},
	})
	putTupleBuf(flatP, flat)
}

func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamNDJSON emits up to n rows as newline-delimited JSON arrays,
// encoding incrementally from pooled buffers and flushing every
// ndjsonChunk rows: the response is produced row by row straight off
// the structure's O(log n) probes, never materialized whole.
//
// The cursor position is committed to the window end BEFORE the first
// byte (the Seek below), and the committed position and completion
// state travel as X-Cursor-Pos and X-Cursor-Done headers — so client
// and server positions agree even if the client aborts mid-stream.
// The rows themselves then come from the cursor's immutable handle
// snapshot, which cannot be invalidated mid-stream: a stream that
// starts, finishes, at exactly end-pos rows.
//
// Every chunk write carries a fresh deadline (Config.StreamWriteTimeout):
// a reader that accepts no bytes for that long gets its stream cut,
// so one stalled client cannot pin this cursor — and the epoch handle
// it holds — indefinitely. That is backpressure by disconnection, the
// only kind HTTP/1 offers.
func (s *server) streamNDJSON(sc *serverCursor, w http.ResponseWriter, n int) {
	cur := sc.cur
	pos, total := cur.Pos(), cur.Total()
	end := pos + int64(n)
	if end > total {
		end = total
	}
	// Bounds check + position commit in one step: a bad window fails
	// here, before any header is written.
	if _, err := cur.Seek(end, io.SeekStart); err != nil {
		failErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cursor", sc.id)
	w.Header().Set("X-Cursor-Pos", strconv.FormatInt(end, 10))
	w.Header().Set("X-Cursor-Done", strconv.FormatBool(end >= total))
	rc := http.NewResponseController(w)
	h := cur.Handle()
	flatP := tuplePool.Get().(*[]values.Value)
	flat := (*flatP)[:0]
	bp := ndjsonPool.Get().(*[]byte)
	b := (*bp)[:0]
	width := h.Width()
	for pos < end {
		k1 := pos + ndjsonChunk
		if k1 > end {
			k1 = end
		}
		var err error
		flat, err = h.AccessRange(flat[:0], pos, k1)
		if err != nil {
			break // internal error; the short stream is the signal
		}
		b = b[:0]
		for i := 0; i < int(k1-pos); i++ {
			b = append(api.AppendRow(b, flat[i*width:(i+1)*width]), '\n')
		}
		if s.streamWrite > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.streamWrite))
		}
		if _, err := w.Write(b); err != nil {
			break // client went away (or stalled past the write deadline)
		}
		_ = rc.Flush()
		pos = k1
	}
	putTupleBuf(flatP, flat)
	if cap(b) <= maxPooledBuf {
		*bp = b
		ndjsonPool.Put(bp)
	}
}

func (s *server) handleCursorClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.st.remove(id) {
		failErr(w, fmt.Errorf("%w: cursor %q", engine.ErrNotPrepared, id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
