package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/workload"
)

// metricsServer boots a handler over a small generated instance.
func metricsServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	_, in := workload.TwoPath(rng, 256, 32, 0.3)
	e := engine.New(in, engine.Options{})
	srv := httptest.NewServer(NewHandlerWith(e, cfg))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { e.Close() })
	return srv
}

// scrapeMetrics fetches and parses /metrics, failing the test on any
// malformed line, and returns samples keyed by Sample.Key().
func scrapeMetrics(t *testing.T, srv *httptest.Server) map[string]float64 {
	t.Helper()
	return scrapeURL(t, srv.Client(), srv.URL)
}

// scrapeURL is scrapeMetrics for any base URL (a serve.Start process).
func scrapeURL(t *testing.T, hc *http.Client, base string) map[string]float64 {
	t.Helper()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape Content-Type = %q", ct)
	}
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	byKey := make(map[string]float64, len(samples))
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	return byKey
}

func TestMetricsScrapeCoversServingActivity(t *testing.T) {
	srv := metricsServer(t, Config{})

	post(t, srv, "/v1/instance/access", api.InstanceAccessRequest{
		Spec:          api.Spec{Query: twoPath, Order: "x, y, z"},
		AccessRequest: api.AccessRequest{Ks: []int64{0, 1}},
	}, nil)
	post(t, srv, "/v1/instance/count", api.CountRequest{Query: twoPath}, nil)
	// A malformed request must land in the 4xx class of the same series.
	resp, err := srv.Client().Post(srv.URL+"/v1/instance/access", "application/json", strings.NewReader(`{"query": `))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed access: %d", resp.StatusCode)
	}
	get(t, srv, "/v1/stats", nil)

	got := scrapeMetrics(t, srv)
	for key, min := range map[string]float64{
		`ra_http_requests_total|code=2xx|endpoint=instance_access`:                 1,
		`ra_http_requests_total|code=4xx|endpoint=instance_access`:                 1,
		`ra_http_requests_total|code=2xx|endpoint=instance_count`:                  1,
		`ra_http_requests_total|code=2xx|endpoint=stats`:                           1,
		`ra_http_request_duration_seconds_count|endpoint=instance_access`:          2,
		`ra_engine_cache_misses_total`:                                             1,
		`ra_engine_tuples`:                                                         1,
		`ra_engine_instance_version`:                                               0,
		`ra_engine_wal_errors_total`:                                               0,
		`ra_serve_open_cursors`:                                                    0,
		`ra_http_request_duration_seconds_bucket|endpoint=instance_access|le=+Inf`: 2,
	} {
		v, ok := got[key]
		if !ok {
			t.Errorf("scrape is missing %s", key)
			continue
		}
		if v < min {
			t.Errorf("%s = %v, want >= %v", key, v, min)
		}
	}
	// In-flight gauges must be back to zero with no requests running.
	if v := got[`ra_http_in_flight|endpoint=instance_access`]; v != 0 {
		t.Errorf("in-flight after drain = %v", v)
	}
}

func TestMetricsCountShedRequests(t *testing.T) {
	// A one-token bucket: the first admitted request drains it, the
	// second sheds with 429 — which must still be counted by the
	// middleware (the shed happens inside the instrumented chain).
	srv := metricsServer(t, Config{RatePerSec: 0.001, RateBurst: 1})
	post(t, srv, "/v1/instance/count", api.CountRequest{Query: twoPath}, nil)
	resp := postRaw(t, srv, "/v1/instance/count", api.CountRequest{Query: twoPath})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	got := scrapeMetrics(t, srv)
	if v := got[`ra_http_requests_total|code=4xx|endpoint=instance_count`]; v != 1 {
		t.Errorf("4xx count = %v, want 1 (shed not counted)", v)
	}
	if v := got[`ra_serve_shed_rate_limited_total`]; v != 1 {
		t.Errorf("shed_rate_limited_total = %v, want 1", v)
	}
}

func TestStreamedCursorCountedByMiddleware(t *testing.T) {
	srv := metricsServer(t, Config{})
	post(t, srv, "/v1/queries", api.RegisterRequest{
		Name: "m_by_xyz", Spec: api.Spec{Query: twoPath, Order: "x, y, z"},
	}, nil)
	var cr api.CursorResponse
	post(t, srv, "/v1/queries/m_by_xyz/cursor", api.CursorRequest{}, &cr)

	// NDJSON streaming never calls WriteHeader explicitly: the recorder
	// must still classify it 2xx, and ResponseController flushes must
	// keep working through the wrapper.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/cursors/"+cr.Cursor+"/next?n=100000", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
		t.Fatalf("stream: status %d, %d bytes, err %v", resp.StatusCode, n, err)
	}
	got := scrapeMetrics(t, srv)
	if v := got[`ra_http_requests_total|code=2xx|endpoint=cursor_next`]; v != 1 {
		t.Errorf("cursor_next 2xx = %v, want 1", v)
	}
	if v := got[`ra_http_requests_total|code=2xx|endpoint=cursor_create`]; v != 1 {
		t.Errorf("cursor_create 2xx = %v, want 1", v)
	}
}

func TestRequestLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	srv := metricsServer(t, Config{RequestLog: logger})

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/instance/count",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, twoPath)))
	req.Header.Set("X-Request-ID", "test-rid-7")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-rid-7" {
		t.Errorf("clean client id not echoed: %q", got)
	}

	// An id with log-hostile characters is replaced, not trusted.
	req2, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/instance/count",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, twoPath)))
	req2.Header.Set("X-Request-ID", `bad "id"`)
	resp2, err := srv.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got == "" || strings.Contains(got, "bad") {
		t.Errorf("hostile id not replaced: %q", got)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("%d log records, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var rec struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		Endpoint  string  `json:"endpoint"`
		Status    int     `json:"status"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Duration  float64 `json:"duration"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log record is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Msg != "request" || rec.RequestID != "test-rid-7" ||
		rec.Endpoint != "instance_count" || rec.Status != http.StatusOK ||
		rec.Method != http.MethodPost || rec.Path != "/v1/instance/count" {
		t.Errorf("log record = %+v", rec)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestConcurrentTrafficAndScrapes hammers instrumented endpoints while
// scraping; run under -race this is the data-race check for the whole
// middleware + registry path, and every mid-flight scrape must parse.
func TestConcurrentTrafficAndScrapes(t *testing.T) {
	srv := metricsServer(t, Config{})
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				raw, _ := json.Marshal(api.CountRequest{Query: twoPath})
				resp, err := srv.Client().Post(srv.URL+"/v1/instance/count", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			resp, err := srv.Client().Get(srv.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			_, perr := metrics.ParseText(resp.Body)
			resp.Body.Close()
			if perr != nil {
				t.Errorf("mid-flight scrape unparseable: %v", perr)
				return
			}
		}
	}()
	wg.Wait()
	got := scrapeMetrics(t, srv)
	if v := got[`ra_http_requests_total|code=2xx|endpoint=instance_count`]; v != workers*perWorker {
		t.Errorf("2xx count = %v, want %d", v, workers*perWorker)
	}
}

func TestOpsHandlerServesPprofAndMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	_, in := workload.TwoPath(rng, 128, 16, 0.3)
	e := engine.New(in, engine.Options{})
	defer e.Close()
	api := NewHandlerWith(e, Config{})
	ops := httptest.NewServer(NewOpsHandler(api))
	defer ops.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/metrics", "/healthz", "/readyz"} {
		resp, err := ops.Client().Get(ops.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	// The API mux must NOT expose pprof.
	apiSrv := httptest.NewServer(api)
	defer apiSrv.Close()
	resp, err := apiSrv.Client().Get(apiSrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable on the API mux")
	}
}
