package main

import (
	"context"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rankedaccess/internal/metrics"
	"rankedaccess/internal/serve"
)

// TestOnceRendersLiveProcess runs the -once mode against an in-process
// serve.Start with tracing on: the digest reads ready, the SLO line and
// the slowest-traces panel render, the HTML snapshot is written, and
// neither gate (burn, tracing) fires on a healthy process.
func TestOnceRendersLiveProcess(t *testing.T) {
	cfg := serve.Flags(flag.NewFlagSet("serve", flag.ContinueOnError))
	cfg.Addr, cfg.OpsAddr, cfg.TraceRate = "127.0.0.1:0", "127.0.0.1:0", 1
	p, err := serve.Start(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(context.Background())
	base, ops := "http://"+p.Addr(), "http://"+p.OpsAddr()
	resp, err := http.Post(base+"/v1/instance/count", "application/json", strings.NewReader(`{"query": "Q(x) :- R(x)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var out strings.Builder
	htmlOut := filepath.Join(t.TempDir(), "dash.html")
	hist := &history{slo: 0.999, threshold: 1}
	if err := runOnce(&out, http.DefaultClient, base, ops, htmlOut, 10*time.Millisecond, hist); err != nil {
		t.Fatalf("runOnce: %v\n%s", err, out.String())
	}
	for _, want := range []string{"ready: ok", "requests", "slo", "slowest traces:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("digest lacks %q:\n%s", want, out.String())
		}
	}
	if page, err := os.ReadFile(htmlOut); err != nil || !strings.Contains(string(page), "ra dash") {
		t.Errorf("HTML snapshot: %v\n%s", err, page)
	}
}

// snapAt fabricates a scrape with the given request totals per status
// class at the given offset from t0.
func snapAt(t *testing.T, t0 time.Time, offset time.Duration, ok, errs float64) *snap {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Counter("ra_http_requests_total", "t", "endpoint", "a", "code", "2xx").Add(uint64(ok))
	reg.Counter("ra_http_requests_total", "t", "endpoint", "a", "code", "5xx").Add(uint64(errs))
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return &snap{at: t0.Add(offset), samples: samples}
}

func TestBurnRateWindows(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	h := &history{slo: 0.999, threshold: 1}

	// 1000 requests in the first 2s, none failing; then 1000 more with
	// a 1% error rate — burn 10x against a 0.1% budget.
	s0 := snapAt(t, t0, 0, 1000, 0)
	s1 := snapAt(t, t0, 2*time.Second, 1990, 10)
	h.push(s0)
	h.push(s1)

	rate, covered, ok := h.burn(s1, fastWindow)
	if !ok {
		t.Fatal("burn not computable with two snaps")
	}
	if covered != 2*time.Second {
		t.Fatalf("covered = %v, want 2s", covered)
	}
	// 10 errors over 1000 requests = 1% error share; budget 0.1% → 10x.
	if rate < 9.99 || rate > 10.01 {
		t.Fatalf("burn = %v, want 10", rate)
	}

	// No errors → zero burn; no traffic → not computable.
	if rate, _, ok := h.burn(s0, fastWindow); ok || rate != 0 {
		t.Fatalf("burn with no earlier snap = %v, %v", rate, ok)
	}
	idle := &history{slo: 0.999, threshold: 1}
	i0 := snapAt(t, t0, 0, 500, 5)
	i1 := snapAt(t, t0, 2*time.Second, 500, 5)
	idle.push(i0)
	idle.push(i1)
	if _, _, ok := idle.burn(i1, fastWindow); ok {
		t.Fatal("burn computable over a window with zero traffic")
	}

	s2 := snapAt(t, t0, 4*time.Second, 1990, 10)
	h.push(s2)

	// The slow window anchors at the oldest retained snapshot and
	// reports partial coverage honestly.
	s3 := snapAt(t, t0, 50*time.Minute, 5000, 10)
	h.push(s3)
	rate, covered, ok = h.burn(s3, slowWindow)
	if !ok || covered != 50*time.Minute {
		t.Fatalf("slow burn = (%v, %v, %v), want 50m coverage", rate, covered, ok)
	}
	// 10 errors over 4010 requests against a 0.1% budget ≈ 2.49x.
	if rate < 2.4 || rate > 2.6 {
		t.Fatalf("slow burn = %v, want ≈2.49", rate)
	}

	// After a gap longer than the retention, everything before the gap
	// is pruned: burn is honestly "unknown" until the next scrape.
	s4 := snapAt(t, t0, 3*slowWindow, 6000, 10)
	h.push(s4)
	if _, _, ok := h.burn(s4, slowWindow); ok {
		t.Fatal("burn computable across a pruned gap")
	}
}

func TestBurnLineAlert(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	h := &history{slo: 0.999, threshold: 1}
	h.push(snapAt(t, t0, 0, 100, 0))
	cur := snapAt(t, t0, 2*time.Second, 150, 50)
	h.push(cur)
	line := burnLine(h, cur)
	if !strings.Contains(line, "ALERT") {
		t.Fatalf("massive burn did not alert: %q", line)
	}
	h2 := &history{slo: 0.999, threshold: 1}
	h2.push(snapAt(t, t0, 0, 100, 0))
	clean := snapAt(t, t0, 2*time.Second, 200, 0)
	h2.push(clean)
	if line := burnLine(h2, clean); strings.Contains(line, "ALERT") {
		t.Fatalf("clean traffic alerted: %q", line)
	}
}
