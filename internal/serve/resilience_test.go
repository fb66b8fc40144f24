package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/faultfs"
	"rankedaccess/internal/stats"
	"rankedaccess/internal/values"
)

// resilServer boots a handler with the given config over a small
// hand-built two-path instance (R={(1,5),(1,2),(6,2)}, S={(5,3),(2,5)}
// → 3 answers), so tests know exactly which writes add which answers.
func resilServer(t *testing.T, eopts engine.Options, cfg Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	e := engine.New(nil, eopts)
	if err := e.AddRows("R", [][]values.Value{{1, 5}, {1, 2}, {6, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("S", [][]values.Value{{5, 3}, {2, 5}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerWith(e, cfg))
	t.Cleanup(srv.Close)
	return srv, e
}

func getStats(t *testing.T, srv *httptest.Server) stats.Snapshot {
	t.Helper()
	var st stats.Snapshot
	get(t, srv, "/v1/stats", &st)
	return st
}

func TestRateLimitSheds429WithRetryAfter(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{}, Config{RatePerSec: 0.1, RateBurst: 2})
	// Registration spends the first token, this probe the second.
	reg := register(t, srv, "q", twoPath, "x, y, z")
	if reg.Total != 3 {
		t.Fatalf("seed total = %d, want 3", reg.Total)
	}
	resp := postRaw(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe within burst: status %d", resp.StatusCode)
	}
	// Burst exhausted; the next request must shed with 429 and an
	// honest Retry-After.
	resp = postRaw(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("probe past burst: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without usable Retry-After (%q)", ra)
	}
	// Monitoring is exempt: /v1/stats must answer and count the shed.
	if st := getStats(t, srv); st.Shed429 == 0 {
		t.Fatalf("shed_rate_limited = %d, want > 0", st.Shed429)
	}
}

func TestGateShedsWhenSaturated(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{}, Config{MaxConcurrent: 1, MaxQueue: 0})

	// Occupy the single slot: a request whose body never finishes holds
	// its handler inside decode, past the gate.
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /v1/instance/count HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{")
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, srv).InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never occupied the gate")
		}
		time.Sleep(time.Millisecond)
	}

	// With the slot held and no queue, the next request sheds 503.
	resp := postRaw(t, srv, "/v1/instance/count", api.CountRequest{Query: twoPath})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request into full gate: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if st := getStats(t, srv); st.Shed503 == 0 {
		t.Fatalf("shed_overload = %d, want > 0", st.Shed503)
	}
	conn.Close()

	// The slot frees once the stalled request dies; service resumes.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp := postRaw(t, srv, "/v1/instance/count", api.CountRequest{Query: twoPath})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never drained: status %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRequestDeadlineMapsTo503(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{}, Config{RequestTimeout: time.Nanosecond})
	// A cold /access must build a structure; the expired deadline stops
	// the build at its first cancellation point, and the API reports
	// overload (503 + Retry-After), not a client error.
	resp := postRaw(t, srv, "/v1/instance/access", api.InstanceAccessRequest{
		Spec:          api.Spec{Query: twoPath, Order: "x, y, z"},
		AccessRequest: api.AccessRequest{Ks: []int64{0}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline 503 without Retry-After")
	}
}

func TestDegradedEngineShedsWritesServesStaleReads(t *testing.T) {
	// DeltaHard=1: a single overlay edit puts the engine at the hard
	// threshold, i.e. degraded. DeltaSoft=1 keeps the background
	// rebuild from being spawned at 1 edit (spawn needs Edits > soft),
	// so the degradation is stable for the test to observe.
	srv, e := resilServer(t, engine.Options{DeltaHard: 1, DeltaSoft: 1}, Config{})
	register(t, srv, "fresh", twoPath, "x, y, z")
	register(t, srv, "stale", twoPath, "z, y, x") // distinct structure, never re-acquired

	// One row into R that joins S exactly once: (7,5)+(5,3) → answer
	// (7,5,3). The "fresh" query's next probe absorbs it as a 1-edit
	// overlay, which IS the hard threshold.
	var wr api.WriteResult
	post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{7, 5}}},
	}}, &wr)
	if wr.Inserted != 1 {
		t.Fatalf("write response = %+v", wr)
	}
	var acc api.AccessResponse
	post(t, srv, "/v1/queries/fresh/access", api.AccessRequest{Ks: []int64{0}}, &acc)
	if acc.Total != 4 {
		t.Fatalf("post-write total = %d, want 4", acc.Total)
	}
	if h := e.Health(); !h.Degraded() {
		t.Fatalf("engine not degraded at the hard threshold: %+v", h)
	}
	// Let the server's cached health sample expire.
	time.Sleep(healthTTL + 50*time.Millisecond)

	// Writes shed with 503 + Retry-After while degraded.
	resp := postRaw(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{8, 5}}},
	}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded write: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded write 503 without Retry-After")
	}

	// Reads on a never-re-acquired registration serve its last
	// published epoch (3 answers — pre-write) instead of paying a
	// catch-up the server has no budget for.
	var staleAcc api.AccessResponse
	post(t, srv, "/v1/queries/stale/access", api.AccessRequest{Ks: []int64{0}}, &staleAcc)
	if staleAcc.Total != 3 {
		t.Fatalf("degraded read total = %d, want stale 3", staleAcc.Total)
	}
	st := getStats(t, srv)
	if !st.Degraded || st.WriteSheds == 0 || st.DegradedReads == 0 {
		t.Fatalf("stats = degraded %v, write_sheds %d, degraded_reads %d",
			st.Degraded, st.WriteSheds, st.DegradedReads)
	}
}

func TestCoalesceServesIdenticalProbesFromCache(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{}, Config{})
	register(t, srv, "q", twoPath, "x, y, z")
	body := api.AccessRequest{Ks: []int64{0, 1, 2}}
	var first, second api.AccessResponse
	post(t, srv, "/v1/queries/q/access", body, &first)
	post(t, srv, "/v1/queries/q/access", body, &second)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("identical probes diverged: %+v vs %+v", first, second)
	}
	st := getStats(t, srv)
	if st.CoalesceHits == 0 || st.CoalesceMisses == 0 {
		t.Fatalf("coalesce hits %d / misses %d, want both > 0", st.CoalesceHits, st.CoalesceMisses)
	}

	// A write publishes a new epoch; the same request must NOT be
	// served from the old epoch's cache entry.
	var wr api.WriteResult
	post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{7, 5}}},
	}}, &wr)
	var third api.AccessResponse
	post(t, srv, "/v1/queries/q/access", body, &third)
	if third.Total != first.Total+1 {
		t.Fatalf("post-write coalesced read: total %d, want %d", third.Total, first.Total+1)
	}
}

// TestCoalescedProbesRacingEpochSwap hammers coalesced range windows
// while a writer publishes new epochs, and checks every response
// against the identity oracle: with only ascending (i,i) inserts into
// R and query Q(x,y) :- R(x,y) ordered by (x,y), row i of ANY epoch is
// (i+1,i+1), and totals only grow. A response mixing epochs inside one
// body, or a cache entry outliving its epoch, breaks one of those.
func TestCoalescedProbesRacingEpochSwap(t *testing.T) {
	e := engine.New(nil, engine.Options{})
	if err := e.AddRows("R", [][]values.Value{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	register(t, srv, "ids", "Q(x, y) :- R(x, y)", "x, y")

	const rows = 24
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := srv.Client()
			window := int64(1) // grows to the last total this reader saw
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, err := json.Marshal(api.RangeRequest{K0: 0, K1: window})
				if err != nil {
					errc <- err
					return
				}
				resp, err := client.Post(srv.URL+"/v1/queries/ids/range", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var rr api.RangeResponse
				err = json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if err != nil {
					errc <- fmt.Errorf("decoding range (status %d): %w", resp.StatusCode, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("range status %d", resp.StatusCode)
					return
				}
				if int64(len(rr.Tuples)) != window || rr.Total < window {
					errc <- fmt.Errorf("window [0,%d): %d tuples under total %d", window, len(rr.Tuples), rr.Total)
					return
				}
				for i, tup := range rr.Tuples {
					if len(tup) != 2 || tup[0] != values.Value(i+1) || tup[1] != values.Value(i+1) {
						errc <- fmt.Errorf("epoch mix: row %d = %v under total %d", i, tup, rr.Total)
						return
					}
				}
				// Totals are monotone, so the observed total is a valid
				// window bound against every future epoch.
				window = rr.Total
			}
		}()
	}
	for i := 2; i <= rows; i++ {
		var wr api.WriteResult
		post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
			{Relation: "R", Insert: [][]values.Value{{values.Value(i), values.Value(i)}}},
		}}, &wr)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Fresh-build oracle for the final epoch.
	var final api.RangeResponse
	post(t, srv, "/v1/queries/ids/range", api.RangeRequest{K0: 0, K1: rows}, &final)
	if final.Total != rows || len(final.Tuples) != rows {
		t.Fatalf("final epoch: total %d, tuples %d, want %d", final.Total, len(final.Tuples), rows)
	}
}

func TestHealthzAndReadyzHealthy(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{}, Config{SnapshotDir: t.TempDir()})
	var hz healthzResponse
	if resp := get(t, srv, "/healthz", &hz); resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hz)
	}
	var rz readyzResponse
	if resp := get(t, srv, "/readyz", &rz); resp.StatusCode != http.StatusOK || !rz.Ready {
		t.Fatalf("readyz = %d %+v", resp.StatusCode, rz)
	}
}

func TestReadyzFlipsOnBrokenWAL(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS())
	e, _, err := engine.Open(dir, nil, engine.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.AddRows("R", [][]values.Value{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	var rz readyzResponse
	if resp := get(t, srv, "/readyz", &rz); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy readyz = %d", resp.StatusCode)
	}

	// Break the WAL: the append's payload write tears AND its rollback
	// truncate fails.
	inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 2, Mode: faultfs.ModeShortWrite})
	inj.Inject(faultfs.Fault{Op: faultfs.OpTruncate, Nth: 1, Mode: faultfs.ModeFail})
	if err := e.AddRows("R", [][]values.Value{{2, 2}}); err == nil {
		t.Fatal("write under double fault succeeded")
	}
	resp := get(t, srv, "/readyz", &rz)
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Ready {
		t.Fatalf("broken-WAL readyz = %d %+v, want 503 not-ready", resp.StatusCode, rz)
	}
	if len(rz.Reasons) == 0 || !strings.Contains(rz.Reasons[0], "wal") {
		t.Fatalf("readyz reasons = %v, want a WAL reason", rz.Reasons)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not-ready readyz without Retry-After")
	}
	// Liveness is unaffected: the process serves, it is just not ready.
	var hz healthzResponse
	if r := get(t, srv, "/healthz", &hz); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz on degraded server = %d", r.StatusCode)
	}
}

func TestReadyzFlipsOnUnwritableSnapshotDir(t *testing.T) {
	// Point SnapshotDir at a regular file: CreateTemp inside it fails
	// for any uid (a chmod-based check would pass for root).
	dir := t.TempDir()
	bogus := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(bogus, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := resilServer(t, engine.Options{}, Config{SnapshotDir: bogus})
	var rz readyzResponse
	resp := get(t, srv, "/readyz", &rz)
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Ready {
		t.Fatalf("readyz with unwritable snapshot dir = %d %+v", resp.StatusCode, rz)
	}
	found := false
	for _, reason := range rz.Reasons {
		if strings.Contains(reason, "snapshot dir") {
			found = true
		}
	}
	if !found {
		t.Fatalf("readyz reasons = %v, want a snapshot-dir reason", rz.Reasons)
	}
}

func TestV1WriteBodyLimit413(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{}, Config{MaxBodyBytes: 1 << 10})
	big := api.WriteRequest{Writes: []api.Write{{Relation: "R"}}}
	for i := 0; i < 500; i++ {
		big.Writes[0].Insert = append(big.Writes[0].Insert, []values.Value{values.Value(i), values.Value(i)})
	}
	if resp := postRaw(t, srv, "/v1/write", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /v1/write: status %d, want 413", resp.StatusCode)
	}
	// The same limit guards the bulk-load endpoint.
	rows := make([][]values.Value, 500)
	for i := range rows {
		rows[i] = []values.Value{values.Value(i), values.Value(i)}
	}
	if resp := postRaw(t, srv, "/v1/instance/load", api.LoadRequest{Relation: "R", Rows: rows}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /load: status %d, want 413", resp.StatusCode)
	}
	// An in-budget write still lands.
	var wr api.WriteResult
	post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{500, 500}}},
	}}, &wr)
	if wr.Inserted != 1 {
		t.Fatalf("small write after 413s: %+v", wr)
	}
}
