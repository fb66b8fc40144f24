package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// v1Server boots a handler over a generated two-path instance.
func v1Server(t *testing.T, n int, seed int64) (*httptest.Server, *engine.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	_, in := workload.TwoPath(rng, n, n/8, 0.3)
	e := engine.New(in, engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	return srv, e
}

// register posts a v1 registration and fails the test on a non-2xx.
func register(t *testing.T, srv *httptest.Server, name, query, order string) api.QueryInfo {
	t.Helper()
	var info api.QueryInfo
	resp := post(t, srv, "/v1/queries", api.RegisterRequest{
		Name: name,
		Spec: api.Spec{Query: query, Order: order},
	}, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: status %d", name, resp.StatusCode)
	}
	return info
}

func TestV1RegisterProbeLifecycle(t *testing.T) {
	srv, e := v1Server(t, 512, 42)
	info := register(t, srv, "by_xyz", twoPath, "x, y, z")
	if info.Total == 0 || !info.Tractable || info.Mode != string(engine.ModeLayeredLex) {
		t.Fatalf("registration info = %+v", info)
	}

	// Probing by name matches the engine directly.
	h, err := e.Prepare(engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	ks := []int64{0, info.Total / 2, info.Total - 1}
	var acc api.AccessResponse
	post(t, srv, "/v1/queries/by_xyz/access", api.AccessRequest{Ks: ks}, &acc)
	for i, k := range ks {
		a, err := h.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		want := h.HeadTuple(a)
		got := acc.Answers[i].Tuple
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("k=%d: %v, want %v", k, got, want)
		}
	}

	// Range by name equals the one-shot /v1/instance/range.
	var v1r, oneShot api.RangeResponse
	post(t, srv, "/v1/queries/by_xyz/range", api.RangeRequest{K0: 5, K1: 25}, &v1r)
	post(t, srv, "/v1/instance/range", api.InstanceRangeRequest{
		Spec:         api.Spec{Query: twoPath, Order: "x, y, z"},
		RangeRequest: api.RangeRequest{K0: 5, K1: 25},
	}, &oneShot)
	if fmt.Sprint(v1r.Tuples) != fmt.Sprint(oneShot.Tuples) {
		t.Fatal("by-name range diverges from one-shot range")
	}

	// Count and classify by name.
	var cnt api.CountResponse
	post(t, srv, "/v1/queries/by_xyz/count", struct{}{}, &cnt)
	if cnt.Count != info.Total {
		t.Fatalf("count = %d, want %d", cnt.Count, info.Total)
	}
	var cls api.Classification
	post(t, srv, "/v1/queries/by_xyz/classify", api.ClassifyRequest{}, &cls)
	if !cls.Tractable {
		t.Fatalf("classify = %+v", cls)
	}

	// Select by name agrees with access.
	var sel api.SelectResponse
	post(t, srv, "/v1/queries/by_xyz/select", api.SelectRequest{K: 3}, &sel)
	if fmt.Sprint(sel.Tuple) != fmt.Sprint(acc.Answers[0].Tuple) && sel.K != 3 {
		t.Fatalf("select = %+v", sel)
	}

	// List shows the registration; eviction removes it.
	var list api.ListResponse
	get(t, srv, "/v1/queries", &list)
	if len(list.Queries) != 1 || list.Queries[0].Name != "by_xyz" {
		t.Fatalf("list = %+v", list)
	}
	del(t, srv, "/v1/queries/by_xyz", http.StatusNoContent)
	if resp := postRaw(t, srv, "/v1/queries/by_xyz/access", api.AccessRequest{Ks: []int64{0}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("access after evict: status %d, want 404", resp.StatusCode)
	}
}

func get(t *testing.T, srv *httptest.Server, path string, into any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp
}

func del(t *testing.T, srv *httptest.Server, path string, wantStatus int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
}

// postRaw posts without decoding, for status-code checks.
func postRaw(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestV1ErrorStatusCodes pins the sentinel → status mapping of the v1
// API: 404 unknown name, 416 out-of-range, 422 strict-intractable.
func TestV1ErrorStatusCodes(t *testing.T) {
	srv, e := v1Server(t, 256, 43)
	info := register(t, srv, "q", twoPath, "x, y, z")

	if resp := postRaw(t, srv, "/v1/queries/ghost/access", api.AccessRequest{Ks: []int64{0}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown name: %d, want 404", resp.StatusCode)
	}
	if resp := postRaw(t, srv, "/v1/queries/q/range", api.RangeRequest{K0: 0, K1: info.Total + 10}); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("oob range: %d, want 416", resp.StatusCode)
	}
	if resp := postRaw(t, srv, "/v1/queries/q/cursor", api.CursorRequest{Start: info.Total + 1}); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("oob cursor start: %d, want 416", resp.StatusCode)
	}
	if resp := postRaw(t, srv, "/v1/queries/q/select", api.SelectRequest{K: info.Total + 7}); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("oob select: %d, want 416", resp.StatusCode)
	}

	// Strict registration of the canonical intractable order is 422 and
	// leaves nothing registered.
	resp := postRaw(t, srv, "/v1/queries", api.RegisterRequest{
		Name:   "hard",
		Spec:   api.Spec{Query: twoPath, Order: "x, z, y"},
		Strict: true,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("strict intractable: %d, want 422", resp.StatusCode)
	}
	if resp := postRaw(t, srv, "/v1/queries/hard/access", api.AccessRequest{Ks: []int64{0}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("strict reject must not register: %d, want 404", resp.StatusCode)
	}
	// A rejected strict re-registration of an EXISTING name must leave
	// the existing registration serving.
	if resp := postRaw(t, srv, "/v1/queries", api.RegisterRequest{
		Name:   "q",
		Spec:   api.Spec{Query: twoPath, Order: "x, z, y"},
		Strict: true,
	}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("strict intractable re-register: %d, want 422", resp.StatusCode)
	}
	var stillThere api.AccessResponse
	if resp := post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, &stillThere); resp.StatusCode != http.StatusOK {
		t.Fatalf("existing registration lost after strict rejection: %d", resp.StatusCode)
	}
	if stillThere.Mode != string(engine.ModeLayeredLex) {
		t.Fatalf("existing registration replaced: %+v", stillThere)
	}
	// Non-strict registration of the same order succeeds as
	// materialized fallback.
	var hardInfo api.QueryInfo
	post(t, srv, "/v1/queries", api.RegisterRequest{
		Name: "hard",
		Spec: api.Spec{Query: twoPath, Order: "x, z, y"},
	}, &hardInfo)
	if hardInfo.Tractable || hardInfo.Mode != string(engine.ModeMaterialized) {
		t.Fatalf("non-strict fallback info = %+v", hardInfo)
	}

	// An open cursor is pinned to its epoch: it keeps serving its
	// pre-mutation result set after the instance mutates.
	var cr api.CursorResponse
	post(t, srv, "/v1/queries/q/cursor", api.CursorRequest{}, &cr)
	if err := e.AddRows("R", [][]values.Value{{999, 999}}); err != nil {
		t.Fatal(err)
	}
	var nout api.CursorPage
	nresp := get(t, srv, "/v1/cursors/"+cr.Cursor+"/next?n=4", &nout)
	if nresp.StatusCode != http.StatusOK {
		t.Fatalf("cursor across mutation: %d, want 200", nresp.StatusCode)
	}
	if len(nout.Tuples) != 4 {
		t.Fatalf("cursor across mutation: %d tuples, want 4", len(nout.Tuples))
	}
	if nresp := get(t, srv, "/v1/cursors/nope/next", nil); nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cursor: %d, want 404", nresp.StatusCode)
	}
}

// cursorNext pages one JSON batch.
func cursorNext(t *testing.T, srv *httptest.Server, id string, n int) api.CursorPage {
	t.Helper()
	var out api.CursorPage
	resp := get(t, srv, "/v1/cursors/"+id+"/next?n="+strconv.Itoa(n), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next: status %d", resp.StatusCode)
	}
	return out
}

// TestCursorPagingMatchesBatchAccess pages a cursor to exhaustion and
// checks the concatenation equals one /v1 access batch over all ks.
func TestCursorPagingMatchesBatchAccess(t *testing.T) {
	srv, _ := v1Server(t, 300, 44)
	info := register(t, srv, "page", twoPath, "x, y desc, z")

	var cr api.CursorResponse
	if resp := post(t, srv, "/v1/queries/page/cursor", api.CursorRequest{}, &cr); resp.StatusCode != http.StatusCreated {
		t.Fatalf("cursor create: %d", resp.StatusCode)
	}
	if cr.Total != info.Total || cr.Pos != 0 {
		t.Fatalf("cursor = %+v", cr)
	}
	var paged [][]values.Value
	for {
		out := cursorNext(t, srv, cr.Cursor, 7)
		paged = append(paged, out.Tuples...)
		if out.Done {
			if out.Pos != info.Total {
				t.Fatalf("done at pos %d, want %d", out.Pos, info.Total)
			}
			break
		}
	}
	if int64(len(paged)) != info.Total {
		t.Fatalf("paged %d tuples, want %d", len(paged), info.Total)
	}

	ks := make([]int64, info.Total)
	for i := range ks {
		ks[i] = int64(i)
	}
	var batch api.AccessResponse
	post(t, srv, "/v1/queries/page/access", api.AccessRequest{Ks: ks}, &batch)
	for i := range ks {
		if fmt.Sprint(paged[i]) != fmt.Sprint(batch.Answers[i].Tuple) {
			t.Fatalf("row %d: paged %v, batch %v", i, paged[i], batch.Answers[i].Tuple)
		}
	}

	del(t, srv, "/v1/cursors/"+cr.Cursor, http.StatusNoContent)
	if resp := get(t, srv, "/v1/cursors/"+cr.Cursor+"/next", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("closed cursor next: %d, want 404", resp.StatusCode)
	}
}

// streamNDJSONRows fetches one NDJSON window and decodes every line
// with encoding/json (the "byte-decoded" check: the stream is plain
// JSON rows).
func streamNDJSONRows(t *testing.T, srv *httptest.Server, id string, n int) ([][]values.Value, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/cursors/"+id+"/next?n="+strconv.Itoa(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var rows [][]values.Value
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var row []values.Value
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, resp.Header
}

// TestNDJSONStreamEqualsAccessBatch is the satellite guard: the NDJSON
// stream, byte-decoded line by line, must equal the batched
// /v1/.../access answers for the same window.
func TestNDJSONStreamEqualsAccessBatch(t *testing.T) {
	srv, _ := v1Server(t, 400, 45)
	info := register(t, srv, "s", twoPath, "x, y, z")
	if info.Total < 50 {
		t.Fatalf("instance too small: %d answers", info.Total)
	}

	var cr api.CursorResponse
	post(t, srv, "/v1/queries/s/cursor", api.CursorRequest{Start: 10}, &cr)
	rows, hdr := streamNDJSONRows(t, srv, cr.Cursor, 30)
	if len(rows) != 30 {
		t.Fatalf("streamed %d rows, want 30", len(rows))
	}
	if pos := hdr.Get("X-Cursor-Pos"); pos != "40" {
		t.Fatalf("X-Cursor-Pos = %q, want 40", pos)
	}
	if done := hdr.Get("X-Cursor-Done"); done != "false" {
		t.Fatalf("X-Cursor-Done = %q, want false", done)
	}

	ks := make([]int64, 30)
	for i := range ks {
		ks[i] = int64(10 + i)
	}
	var batch api.AccessResponse
	post(t, srv, "/v1/queries/s/access", api.AccessRequest{Ks: ks}, &batch)
	for i := range ks {
		if fmt.Sprint(rows[i]) != fmt.Sprint(batch.Answers[i].Tuple) {
			t.Fatalf("row %d: stream %v, batch %v", i, rows[i], batch.Answers[i].Tuple)
		}
	}

	// The stream advanced the server cursor: the next JSON page starts
	// where the stream ended.
	out := cursorNext(t, srv, cr.Cursor, 1)
	if out.Pos != 41 {
		t.Fatalf("pos after stream+1 = %d, want 41", out.Pos)
	}

	// Draining the remainder ends exactly at total with done=true.
	rest, hdr := streamNDJSONRows(t, srv, cr.Cursor, int(info.Total))
	if int64(len(rest)) != info.Total-41 {
		t.Fatalf("drained %d rows, want %d", len(rest), info.Total-41)
	}
	if done := hdr.Get("X-Cursor-Done"); done != "true" {
		t.Fatalf("X-Cursor-Done after drain = %q, want true", done)
	}
}

// TestV1ShardedCursorEquivalence streams the same window sharded
// (P ∈ {1, 4}) and unsharded through HTTP cursors and requires
// identical bytes.
func TestV1ShardedCursorEquivalence(t *testing.T) {
	srv, _ := v1Server(t, 400, 46)
	register(t, srv, "plain", twoPath, "x, y, z")
	var plainCr api.CursorResponse
	post(t, srv, "/v1/queries/plain/cursor", api.CursorRequest{}, &plainCr)
	want, _ := streamNDJSONRows(t, srv, plainCr.Cursor, int(plainCr.Total))

	for _, p := range []int{1, 4} {
		name := fmt.Sprintf("shard%d", p)
		var info api.QueryInfo
		post(t, srv, "/v1/queries", api.RegisterRequest{
			Name: name,
			Spec: api.Spec{Query: twoPath, Order: "x, y, z", Shards: p},
		}, &info)
		var cr api.CursorResponse
		post(t, srv, "/v1/queries/"+name+"/cursor", api.CursorRequest{}, &cr)
		got, _ := streamNDJSONRows(t, srv, cr.Cursor, int(cr.Total))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("P=%d stream diverges from unsharded", p)
		}
	}
}

// TestConcurrentHTTPCursors opens many cursors on one registration and
// drains them from concurrent goroutines with mixed JSON/NDJSON pages
// (run with -race).
func TestConcurrentHTTPCursors(t *testing.T) {
	srv, _ := v1Server(t, 300, 47)
	info := register(t, srv, "conc", twoPath, "x, y, z")

	var refCr api.CursorResponse
	post(t, srv, "/v1/queries/conc/cursor", api.CursorRequest{}, &refCr)
	want, _ := streamNDJSONRows(t, srv, refCr.Cursor, int(info.Total))

	const workers = 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var cr api.CursorResponse
			post(t, srv, "/v1/queries/conc/cursor", api.CursorRequest{}, &cr)
			var rows [][]values.Value
			if g%2 == 0 {
				for {
					out := cursorNext(t, srv, cr.Cursor, 11)
					rows = append(rows, out.Tuples...)
					if out.Done {
						break
					}
				}
			} else {
				rows, _ = streamNDJSONRows(t, srv, cr.Cursor, int(info.Total))
			}
			if fmt.Sprint(rows) != fmt.Sprint(want) {
				t.Errorf("goroutine %d scan diverged", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestStatsRegistryCounters is the acceptance check: registered-name
// probes bump registry_hits (zero re-parsing), visible in /stats.
func TestStatsRegistryCounters(t *testing.T) {
	srv, _ := v1Server(t, 128, 48)
	register(t, srv, "counted", twoPath, "x, y, z")

	before := getStats(t, srv)
	if before.Prepared != 1 {
		t.Fatalf("prepared = %d, want 1", before.Prepared)
	}
	for i := 0; i < 5; i++ {
		post(t, srv, "/v1/queries/counted/access", api.AccessRequest{Ks: []int64{0}}, nil)
	}
	after := getStats(t, srv)
	if after.RegistryHits < before.RegistryHits+5 {
		t.Fatalf("registry_hits %d -> %d, want +5", before.RegistryHits, after.RegistryHits)
	}

	var cr api.CursorResponse
	post(t, srv, "/v1/queries/counted/cursor", api.CursorRequest{}, &cr)
	if after = getStats(t, srv); after.OpenCursors != 1 {
		t.Fatalf("open_cursors = %d, want 1", after.OpenCursors)
	}
	del(t, srv, "/v1/cursors/"+cr.Cursor, http.StatusNoContent)
	if after = getStats(t, srv); after.OpenCursors != 0 {
		t.Fatalf("open_cursors after close = %d, want 0", after.OpenCursors)
	}
}
