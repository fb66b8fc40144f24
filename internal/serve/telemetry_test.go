package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/stats"
	"rankedaccess/internal/values"
)

// liveTelemetry renders a handler's telemetry surface in the golden
// file's shape: every # HELP / # TYPE line of GET /metrics, then one
// "stats <key>" line per GET /v1/stats key in response order.
func liveTelemetry(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	var out strings.Builder
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if l := sc.Text(); strings.HasPrefix(l, "# HELP ") || strings.HasPrefix(l, "# TYPE ") {
			out.WriteString(l + "\n")
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil { // opening brace
		t.Fatalf("/v1/stats is not a JSON object: %v\n%s", err, raw)
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
		out.WriteString("stats " + key.(string) + "\n")
	}
	return out.String()
}

// canonTelemetry sorts the # lines — the exposition format gives family
// order no meaning — and keeps the stats keys in order, which clients
// that print the object do see.
func canonTelemetry(text string) string {
	var families, keys []string
	for _, l := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(l, "# ") {
			families = append(families, l)
		} else {
			keys = append(keys, l)
		}
	}
	sort.Strings(families)
	return strings.Join(append(families, keys...), "\n") + "\n"
}

// TestTelemetryContract diffs the live telemetry surface of an idle
// single-role handler against testdata/telemetry.golden, so renaming,
// retyping, re-describing, adding or dropping a series or a stats key
// is a reviewed diff of that file — and then checks that, after some
// traffic, every declared counter reads the same on both surfaces.
func TestTelemetryContract(t *testing.T) {
	want, err := os.ReadFile("testdata/telemetry.golden")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := resilServer(t, engine.Options{}, Config{})
	if got := canonTelemetry(liveTelemetry(t, srv)); got != canonTelemetry(string(want)) {
		t.Errorf("telemetry surface differs from testdata/telemetry.golden; "+
			"if the change is deliberate, make the file read:\n%s", got)
	}

	// Traffic that moves counters of every group: a build and a
	// registration, a coalesce miss then hit, a write and its catch-up,
	// an open cursor.
	register(t, srv, "q", twoPath, "x, y, z")
	post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, nil)
	post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, nil)
	post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{7, 5}}},
	}}, nil)
	post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, nil)
	post(t, srv, "/v1/queries/q/cursor", api.CursorRequest{}, nil)

	var asJSON map[string]any
	get(t, srv, "/v1/stats", &asJSON)
	scraped := scrapeMetrics(t, srv)
	rt := reflect.TypeOf(stats.Snapshot{})
	moved := 0
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag
		key, metric := tag.Get("json"), tag.Get("metric")
		var fromJSON float64
		switch v := asJSON[key].(type) {
		case float64:
			fromJSON = v
		case bool:
			if v {
				fromJSON = 1
			}
		default:
			t.Errorf("/v1/stats lacks %q (or it is not a number/bool): %v", key, asJSON[key])
			continue
		}
		fromScrape, ok := scraped[metric]
		if !ok {
			t.Errorf("/metrics lacks %s", metric)
			continue
		}
		if fromJSON != fromScrape {
			t.Errorf("%s = %v on /v1/stats but %s = %v on /metrics", key, fromJSON, metric, fromScrape)
		}
		if fromJSON != 0 {
			moved++
		}
	}
	if moved < 10 {
		t.Errorf("only %d counters moved; the agreement check compared mostly zeros", moved)
	}
}

// TestStatsSurfacesShareOneHealthSample drives the engine to the hard
// overlay limit through the request path (which caches a healthy sample
// for healthTTL on the way) and immediately reads both surfaces: they
// must agree that the engine is degraded, and both must carry the
// fields that used to live on one surface only.
func TestStatsSurfacesShareOneHealthSample(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{DeltaHard: 1, DeltaSoft: 1}, Config{})
	register(t, srv, "q", twoPath, "x, y, z")
	post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{7, 5}}},
	}}, nil)
	// The probe absorbs the write as a 1-edit overlay: the hard limit.
	post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, nil)

	var asJSON map[string]any
	get(t, srv, "/v1/stats", &asJSON)
	scraped := scrapeMetrics(t, srv)
	for key, metric := range map[string]string{
		"degraded":          "ra_engine_degraded",
		"overlay_edits_max": "ra_engine_overlay_edits_max",
		"bg_rebuilding":     "ra_engine_bg_rebuilding",
		"version":           "ra_engine_instance_version",
	} {
		if _, ok := asJSON[key]; !ok {
			t.Errorf("/v1/stats lacks %q", key)
		}
		if _, ok := scraped[metric]; !ok {
			t.Errorf("/metrics lacks %s", metric)
		}
	}
	if asJSON["degraded"] != true || scraped["ra_engine_degraded"] != 1 {
		t.Errorf("degraded: /v1/stats says %v, /metrics says %v; want true and 1",
			asJSON["degraded"], scraped["ra_engine_degraded"])
	}
	if asJSON["overlay_edits_max"] != 1.0 || scraped["ra_engine_overlay_edits_max"] != 1 {
		t.Errorf("overlay_edits_max: /v1/stats says %v, /metrics says %v; want 1 on both",
			asJSON["overlay_edits_max"], scraped["ra_engine_overlay_edits_max"])
	}
}

// TestRetiredUnversionedPathsAnswer404 pins the executed sunset: the
// unversioned spellings are unknown paths now, and asking for one
// reaches no handler — the engine's counters do not move.
func TestRetiredUnversionedPathsAnswer404(t *testing.T) {
	srv, e := resilServer(t, engine.Options{}, Config{})
	before := e.Stats()
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/load"},
		{http.MethodPost, "/access"},
		{http.MethodPost, "/range"},
		{http.MethodPost, "/select"},
		{http.MethodPost, "/classify"},
		{http.MethodPost, "/count"},
		{http.MethodGet, "/stats"},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path,
			strings.NewReader(`{"query": "Q(x, y, z) :- R(x, y), S(y, z)", "order": "x, y, z", "ks": [0]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", c.method, c.path, resp.StatusCode)
		}
		if h := resp.Header.Get("Deprecation"); h != "" {
			t.Errorf("%s %s still carries a Deprecation header %q", c.method, c.path, h)
		}
	}
	if after := e.Stats(); after != before {
		t.Errorf("retired paths touched the engine: stats %+v -> %+v", before, after)
	}
}

// TestCatchupHistogram scrapes ra_engine_catchup_seconds around a write
// and the probe that catches up after it: the probe publishes one
// overlay epoch, which the histogram observes once.
func TestCatchupHistogram(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{}, Config{})
	register(t, srv, "q", twoPath, "x, y, z")
	post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, nil)
	const count, inf = `ra_engine_catchup_seconds_count`, `ra_engine_catchup_seconds_bucket|le=+Inf`
	if got := scrapeMetrics(t, srv); got[count] != 0 || got[inf] != 0 {
		t.Fatalf("before any write: count %v, +Inf bucket %v", got[count], got[inf])
	}
	post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{7, 5}}},
	}}, nil)
	post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, nil)
	got := scrapeMetrics(t, srv)
	if got[count] != 1 || got[inf] != 1 {
		t.Fatalf("after a write and a probe: count %v, +Inf bucket %v; want 1", got[count], got[inf])
	}
	if sum := got[`ra_engine_catchup_seconds_sum`]; sum <= 0 || sum > 10 {
		t.Fatalf("catch-up seconds sum %v", sum)
	}
	if v := got[`ra_engine_delta_epochs_total`]; v != 1 {
		t.Fatalf("delta epochs %v, want 1 (the histogram observes exactly these)", v)
	}
}

// TestBuildHistogram scrapes ra_engine_build_seconds through a
// registration, whose synchronous build it observes, and a write large
// enough to push the overlay past DeltaSoft, whose background rebuild
// it observes once it has swapped in.
func TestBuildHistogram(t *testing.T) {
	srv, _ := resilServer(t, engine.Options{DeltaSoft: 1}, Config{})
	const count = `ra_engine_build_seconds_count`
	if got := scrapeMetrics(t, srv)[count]; got != 0 {
		t.Fatalf("before any build: count %v", got)
	}
	register(t, srv, "q", twoPath, "x, y, z")
	post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, nil)
	got := scrapeMetrics(t, srv)
	if got[count] != 1 || got[`ra_engine_build_seconds_bucket|le=+Inf`] != 1 {
		t.Fatalf("after a registration: count %v, +Inf bucket %v; want 1", got[count], got[`ra_engine_build_seconds_bucket|le=+Inf`])
	}
	if sum := got[`ra_engine_build_seconds_sum`]; sum <= 0 || sum > 10 {
		t.Fatalf("build seconds sum %v", sum)
	}
	post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{7, 5}, {8, 5}}},
	}}, nil)
	post(t, srv, "/v1/queries/q/access", api.AccessRequest{Ks: []int64{0}}, nil)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got = scrapeMetrics(t, srv)
		if got[`ra_engine_bg_rebuilds_total`] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background rebuild swapped in: %v", got[`ra_engine_bg_rebuilds_total`])
		}
	}
	if got[count] != 2 {
		t.Fatalf("after a background rebuild: count %v, want 2", got[count])
	}
}
