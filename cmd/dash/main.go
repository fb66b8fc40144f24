// Command dash is a terminal (and HTML) dashboard for a running serve
// instance, built on nothing but the server's own observability
// surface: it polls GET /metrics (Prometheus text) and GET /readyz and
// renders the serving picture — QPS, latency quantiles, shed and
// coalesce rates, epoch churn, WAL health — from counter deltas
// between polls.
//
// Usage:
//
//	dash -addr http://localhost:8080            # live terminal view
//	dash -addr http://localhost:8080 -once      # one snapshot, then exit (CI-friendly)
//	dash -addr http://localhost:8080 -html dash.html  # also write an HTML snapshot each poll
//	dash -addr http://localhost:8080 -traces http://localhost:6060  # slowest-traces panel from the ops listener
//
// With -traces pointing at the server's ops listener, dash polls
// GET /debug/traces too and renders the slowest stored traces (id,
// root span, duration, keep reason) under the metrics. Under -once the
// panel doubles as a tracing health gate: when the window saw traffic
// but the store holds no traces at all, dash exits non-zero — a server
// whose sampler keeps nothing (mis-set rate, slow threshold above
// every request) has silently lost its debugging surface.
//
// Rates and quantiles are computed over the polling interval (lifetime
// totals on the first poll and under -once), so the view tracks what
// the server is doing now, not since boot. The latency quantiles are
// interpolated from the ra_http_request_duration_seconds histogram the
// same way Prometheus's histogram_quantile does.
//
// Availability SLO: dash tracks a multi-window error-budget burn rate
// from the 5xx share of ra_http_requests_total. Burn = (5xx fraction) /
// (1 - SLO), so burn 1.0 spends the budget exactly at the SLO boundary.
// Two windows — 5m (fast) and 1h (slow) — follow the standard
// multi-window alerting shape: the fast window catches new breakage
// quickly, the slow window keeps one bad poll from paging. The ALERT
// marker fires only when BOTH burn past -burn. Under -once, dash takes
// a second scrape one -interval later and exits non-zero when that
// sample's burn crosses the threshold (CI gate: "did this deploy start
// burning the budget?").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"html"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rankedaccess/internal/metrics"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "base URL of the serve instance")
		interval = flag.Duration("interval", 2*time.Second, "polling interval")
		once     = flag.Bool("once", false, "two scrapes one interval apart, then exit (non-zero on scrape failure or fast-window burn)")
		htmlOut  = flag.String("html", "", "also write an HTML snapshot to this file each poll")
		slo      = flag.Float64("slo", 0.999, "availability SLO target (success fraction)")
		burnMax  = flag.Float64("burn", 1.0, "error-budget burn-rate threshold for the ALERT marker and -once exit")
		tracesAt = flag.String("traces", "", "ops-listener base URL for the slowest-traces panel (GET /debug/traces); off when empty")
	)
	flag.Parse()
	base := strings.TrimRight(*addr, "/")
	hc := &http.Client{Timeout: 10 * time.Second}
	hist := &history{slo: *slo, threshold: *burnMax}

	if *once {
		if err := runOnce(os.Stdout, hc, base, *tracesAt, *htmlOut, *interval, hist); err != nil {
			fmt.Fprintf(os.Stderr, "dash: %v\n", err)
			os.Exit(1)
		}
		return
	}
	prev, err := scrape(hc, base)
	if err != nil {
		log.Fatalf("dash: %v", err)
	}
	hist.push(prev)
	for {
		time.Sleep(*interval)
		cur, err := scrape(hc, base)
		if err != nil {
			fmt.Printf("dash: scrape failed: %v\n", err)
			continue
		}
		hist.push(cur)
		fmt.Print("\033[H\033[2J") // clear terminal between polls
		render(os.Stdout, base, prev, cur, hist)
		if *tracesAt != "" {
			renderTraces(os.Stdout, *tracesAt, scrapeTraces(hc, *tracesAt))
		}
		if *htmlOut != "" {
			writeHTML(*htmlOut, base, prev, cur, hist)
		}
		prev = cur
	}
}

// runOnce is the -once mode: two scrapes one interval apart — lifetime
// totals cannot say whether the budget is burning NOW — rendered to w.
// The error is the CI gate's verdict: a failed scrape, a fast-window burn
// at or past the threshold, or (with -traces) a store that kept nothing
// of a window that saw traffic.
func runOnce(w io.Writer, hc *http.Client, base, tracesAt, htmlOut string, interval time.Duration, hist *history) error {
	prev, err := scrape(hc, base)
	if err != nil {
		return err
	}
	hist.push(prev)
	time.Sleep(interval)
	cur, err := scrape(hc, base)
	if err != nil {
		return err
	}
	hist.push(cur)
	render(w, base, prev, cur, hist)
	tr := scrapeTraces(hc, tracesAt)
	renderTraces(w, tracesAt, tr)
	if htmlOut != "" {
		writeHTML(htmlOut, base, prev, cur, hist)
	}
	if fast, _, ok := hist.burn(cur, fastWindow); ok && fast >= hist.threshold {
		return fmt.Errorf("fast-window burn %.2f >= %.2f: error budget burning", fast, hist.threshold)
	}
	return traceGate(tr, cur.sum("ra_http_requests_total")-prev.sum("ra_http_requests_total"))
}

// SLO burn-rate windows: the fast one catches fresh breakage, the slow
// one confirms it is sustained.
const (
	fastWindow = 5 * time.Minute
	slowWindow = time.Hour
)

// history is the ring of past scrapes the burn-rate windows are
// computed from. Snapshots older than the slow window (plus slack for
// the boundary sample) are dropped.
type history struct {
	slo       float64
	threshold float64
	snaps     []*snap
}

func (h *history) push(s *snap) {
	h.snaps = append(h.snaps, s)
	cutoff := s.at.Add(-slowWindow - time.Minute)
	i := 0
	for i < len(h.snaps)-1 && h.snaps[i].at.Before(cutoff) {
		i++
	}
	h.snaps = h.snaps[i:]
}

// burn computes the error-budget burn rate over the trailing window:
// the 5xx share of requests in the window divided by the budget
// (1-SLO). covered reports how much of the window the history actually
// spans — early in a run the "1h" burn is really a burn over whatever
// has been observed so far. ok is false when there is no earlier
// snapshot or no traffic to judge.
func (h *history) burn(cur *snap, window time.Duration) (rate float64, covered time.Duration, ok bool) {
	// Oldest snapshot still inside the window; it anchors the delta.
	var anchor *snap
	cutoff := cur.at.Add(-window)
	for _, s := range h.snaps {
		if s == cur {
			continue
		}
		if !s.at.Before(cutoff) {
			anchor = s
			break
		}
		anchor = s // keep the newest pre-window snap as fallback anchor
	}
	if anchor == nil || !anchor.at.Before(cur.at) {
		return 0, 0, false
	}
	covered = cur.at.Sub(anchor.at)
	if covered > window {
		covered = window
	}
	reqs := cur.sum("ra_http_requests_total") - anchor.sum("ra_http_requests_total")
	errs := cur.errors5xx() - anchor.errors5xx()
	if reqs <= 0 {
		return 0, covered, false
	}
	budget := 1 - h.slo
	if budget <= 0 {
		budget = 1e-9 // a 100% SLO has no budget; any error burns "infinitely"
	}
	return (errs / reqs) / budget, covered, true
}

// snap is one poll: the parsed scrape plus the readiness probe.
type snap struct {
	at      time.Time
	samples []metrics.Sample
	ready   bool
	readyAt string // the probe's body or error, for display when not ready
}

func scrape(hc *http.Client, base string) (*snap, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	s := &snap{at: time.Now(), samples: samples}
	if r, err := hc.Get(base + "/readyz"); err != nil {
		s.readyAt = err.Error()
	} else {
		body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<12))
		r.Body.Close()
		s.ready = r.StatusCode == http.StatusOK
		s.readyAt = strings.TrimSpace(string(body))
	}
	return s, nil
}

// sum adds every sample of a family across label sets.
func (s *snap) sum(name string) float64 {
	var t float64
	for _, sm := range s.samples {
		if sm.Name == name {
			t += sm.Value
		}
	}
	return t
}

// errors5xx sums the 5xx status class of the request counter across
// endpoints (the code label is a class, never a raw status — see
// internal/serve's metrics cardinality policy).
func (s *snap) errors5xx() float64 {
	var t float64
	for _, sm := range s.samples {
		if sm.Name == "ra_http_requests_total" && sm.Label("code") == "5xx" {
			t += sm.Value
		}
	}
	return t
}

// view is the digest both renderers draw: every rate is per second
// over the window between the two snaps (lifetime when prev is nil).
type view struct {
	window   time.Duration
	lifetime bool

	qps, p50, p95, p99    float64
	inFlight              float64
	shed429PS, shed503PS  float64
	coalescePct           float64 // hit share of coalescer traffic, 0-100
	epochsPS, rebuildsPS  float64
	bgRebuilds            float64
	walBatches, walErrors float64
	version, tuples       float64
	degraded              bool
	ready                 bool
	readyDetail           string
}

func digest(prev, cur *snap) view {
	v := view{lifetime: prev == nil, ready: cur.ready, readyDetail: cur.readyAt}
	d := func(name string) float64 {
		if prev == nil {
			return cur.sum(name)
		}
		return cur.sum(name) - prev.sum(name)
	}
	window := time.Second
	if prev != nil {
		window = cur.at.Sub(prev.at)
	}
	v.window = window
	secs := window.Seconds()
	if secs <= 0 {
		secs = 1
	}
	v.qps = d("ra_http_requests_total") / secs
	if v.lifetime {
		v.qps = 0 // lifetime QPS over unknown uptime is a lie; show totals instead
	}
	v.p50 = quantile(prev, cur, 0.50)
	v.p95 = quantile(prev, cur, 0.95)
	v.p99 = quantile(prev, cur, 0.99)
	v.inFlight = cur.sum("ra_http_in_flight")
	v.shed429PS = d("ra_serve_shed_rate_limited_total") / secs
	v.shed503PS = d("ra_serve_shed_overload_total") / secs
	hits, misses := d("ra_serve_coalesce_hits_total"), d("ra_serve_coalesce_misses_total")
	if hits+misses > 0 {
		v.coalescePct = 100 * hits / (hits + misses)
	}
	v.epochsPS = d("ra_engine_delta_epochs_total") / secs
	v.rebuildsPS = (d("ra_engine_delta_rebuilds_total") + d("ra_engine_bg_rebuilds_total")) / secs
	v.bgRebuilds = cur.sum("ra_engine_bg_rebuilding")
	v.walBatches = cur.sum("ra_engine_wal_batches_total")
	v.walErrors = cur.sum("ra_engine_wal_errors_total")
	v.version = cur.sum("ra_engine_instance_version")
	v.tuples = cur.sum("ra_engine_tuples")
	v.degraded = cur.sum("ra_engine_degraded") > 0
	return v
}

// quantile interpolates a latency quantile from the request-duration
// histogram, buckets summed across endpoints and differenced across
// the window (histogram_quantile semantics: linear within a bucket).
func quantile(prev, cur *snap, q float64) float64 {
	type bucket struct {
		le    float64
		count float64
	}
	byLE := map[float64]float64{}
	add := func(s *snap, sign float64) {
		for _, sm := range s.samples {
			if sm.Name != "ra_http_request_duration_seconds_bucket" {
				continue
			}
			le, err := parseLE(sm.Label("le"))
			if err != nil {
				continue
			}
			byLE[le] += sign * sm.Value
		}
	}
	add(cur, 1)
	if prev != nil {
		add(prev, -1)
	}
	buckets := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		buckets = append(buckets, bucket{le, c})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].count
	if total <= 0 {
		return 0
	}
	rank := q * total
	lower, lowerCount := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lower // no upper bound to interpolate toward
			}
			if b.count == lowerCount {
				return b.le
			}
			return lower + (b.le-lower)*(rank-lowerCount)/(b.count-lowerCount)
		}
		lower, lowerCount = b.le, b.count
	}
	return buckets[len(buckets)-1].le
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func render(w io.Writer, base string, prev, cur *snap, hist *history) {
	v := digest(prev, cur)
	scope := fmt.Sprintf("last %s", v.window.Round(time.Millisecond))
	if v.lifetime {
		scope = "since boot"
	}
	fmt.Fprintf(w, "ra dash — %s  (%s)\n", base, scope)
	ready := "ready: ok"
	if !v.ready {
		ready = "ready: NOT READY — " + v.readyDetail
	}
	fmt.Fprintln(w, ready)
	if v.lifetime {
		fmt.Fprintf(w, "requests  total %.0f   p50 %s  p95 %s  p99 %s   in-flight %.0f\n",
			cur.sum("ra_http_requests_total"), ms(v.p50), ms(v.p95), ms(v.p99), v.inFlight)
	} else {
		fmt.Fprintf(w, "requests  %.1f/s   p50 %s  p95 %s  p99 %s   in-flight %.0f\n",
			v.qps, ms(v.p50), ms(v.p95), ms(v.p99), v.inFlight)
	}
	fmt.Fprintf(w, "shed      %.1f/s rate-limited, %.1f/s overload   coalesce hit %.0f%%\n",
		v.shed429PS, v.shed503PS, v.coalescePct)
	fmt.Fprintf(w, "epochs    %.1f/s overlay, %.1f/s rebuilt   bg rebuilding %.0f\n",
		v.epochsPS, v.rebuildsPS, v.bgRebuilds)
	wal := "healthy"
	if v.walErrors > 0 {
		wal = fmt.Sprintf("%.0f ERRORS", v.walErrors)
	}
	degraded := "no"
	if v.degraded {
		degraded = "YES"
	}
	fmt.Fprintf(w, "engine    version %.0f   tuples %.0f   wal %.0f batches (%s)   degraded: %s\n",
		v.version, v.tuples, v.walBatches, wal, degraded)
	if hist != nil {
		fmt.Fprintln(w, burnLine(hist, cur))
	}
}

// burnLine renders the multi-window SLO picture: both burn rates with
// their actual coverage, and the ALERT marker when both windows burn
// past the threshold.
func burnLine(hist *history, cur *snap) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slo       %.3g%% target   burn", hist.slo*100)
	fast, slow := 0.0, 0.0
	fastOK, slowOK := false, false
	for _, wdw := range []struct {
		name string
		d    time.Duration
	}{{"5m", fastWindow}, {"1h", slowWindow}} {
		rate, covered, ok := hist.burn(cur, wdw.d)
		if !ok {
			fmt.Fprintf(&b, "   %s -", wdw.name)
			continue
		}
		fmt.Fprintf(&b, "   %s %.2f (over %s)", wdw.name, rate, covered.Round(time.Second))
		if wdw.d == fastWindow {
			fast, fastOK = rate, true
		} else {
			slow, slowOK = rate, true
		}
	}
	if fastOK && slowOK && fast >= hist.threshold && slow >= hist.threshold {
		fmt.Fprintf(&b, "   ALERT: budget burning in both windows")
	}
	return b.String()
}

// traceList mirrors the /debug/traces list response (see
// internal/trace/explorer.go).
type traceList struct {
	Traces []traceEntry `json:"traces"`
	Err    error        `json:"-"` // scrape failure, kept for display
}

type traceEntry struct {
	ID         string `json:"id"`
	Root       string `json:"root"`
	DurationUS int64  `json:"duration_us"`
	Spans      int    `json:"spans"`
	Reason     string `json:"reason"`
	Error      string `json:"error,omitempty"`
}

// scrapeTraces fetches the slowest stored traces from the ops
// listener; a nil return means the panel is off.
func scrapeTraces(hc *http.Client, opsBase string) *traceList {
	if opsBase == "" {
		return nil
	}
	url := strings.TrimRight(opsBase, "/") + "/debug/traces?sort=dur&limit=5"
	resp, err := hc.Get(url)
	if err != nil {
		return &traceList{Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &traceList{Err: fmt.Errorf("GET /debug/traces: %s", resp.Status)}
	}
	var tl traceList
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&tl); err != nil {
		return &traceList{Err: fmt.Errorf("decode /debug/traces: %w", err)}
	}
	return &tl
}

// renderTraces draws the slowest-traces panel.
func renderTraces(w io.Writer, opsBase string, tl *traceList) {
	if tl == nil {
		return
	}
	if tl.Err != nil {
		fmt.Fprintf(w, "traces    unavailable: %v\n", tl.Err)
		return
	}
	if len(tl.Traces) == 0 {
		fmt.Fprintln(w, "traces    none stored")
		return
	}
	fmt.Fprintln(w, "slowest traces:")
	for _, t := range tl.Traces {
		line := fmt.Sprintf("  %s  %-24s %8s  %d spans  [%s]",
			t.ID, t.Root, ms(float64(t.DurationUS)/1e6), t.Spans, t.Reason)
		if t.Error != "" {
			line += "  ERR " + t.Error
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  waterfall: GET %s/debug/traces?id=<id>\n", strings.TrimRight(opsBase, "/"))
}

// traceGate is the -once tracing health check: traffic in the window
// with an empty trace store means the sampler kept nothing — tracing
// is silently broken (or configured to keep nothing), which CI should
// catch before an operator needs a trace that was never stored.
func traceGate(tl *traceList, served float64) error {
	if tl == nil {
		return nil
	}
	if tl.Err != nil {
		return fmt.Errorf("trace explorer unreachable: %w", tl.Err)
	}
	if served > 0 && len(tl.Traces) == 0 {
		return fmt.Errorf("tracing gate: %.0f requests served this window but no traces stored (sampler kept nothing)", served)
	}
	return nil
}

func ms(seconds float64) string {
	if seconds <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", seconds*1e3)
}

// writeHTML renders the same digest as a standalone page (meta-refresh
// keeps a browser tab live while dash keeps rewriting the file).
func writeHTML(path, base string, prev, cur *snap, hist *history) {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	b.WriteString("<meta http-equiv=\"refresh\" content=\"2\">\n")
	b.WriteString("<title>ra dash</title>\n")
	b.WriteString("<style>body{font:14px monospace;background:#111;color:#ddd;padding:2em}" +
		"pre{font:inherit}.bad{color:#f66}</style></head><body>\n<pre>")
	var text strings.Builder
	render(&text, base, prev, cur, hist)
	b.WriteString(html.EscapeString(text.String()))
	b.WriteString("</pre>\n</body></html>\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		log.Printf("dash: write %s: %v", path, err)
	}
}
