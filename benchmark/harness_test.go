package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rankedaccess/internal/metrics"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The reporting rule: the highest percentile with ten samples beyond
// it, capped at p99, and no tail at all on a handful of samples.
func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {20, 0.5}, {100, 0.9}, {400, 0.975}, {1000, 0.99}, {100000, 0.99}} {
		if got := tailQuantile(c.n); !near(got, c.want) {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(100 - i) // unsorted on purpose
	}
	s := summarize(vals)
	if s.N != 101 || !near(s.P50, 50) || !near(s.TailQ, 1-10.0/101) || s.Tail < 89 || s.Tail > 91 {
		t.Errorf("summarize = %+v", s)
	}
}

// spread must reproduce Python's statistics.quantiles(values, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	q1, med, q3, rel := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) || !near(rel, 1) {
		t.Errorf("spread(1..10) = %g %g %g %g, want 2.75 5.5 8.25 1", q1, med, q3, rel)
	}
	// statistics.quantiles([3.1, 2.9, 3.0, 3.3, 2.8], n=4) == [2.85, 3.0, 3.2]
	q1, med, q3, _ = spread([]float64{3.1, 2.9, 3.0, 3.3, 2.8})
	if !near(q1, 2.85) || !near(med, 3.0) || !near(q3, 3.2) {
		t.Errorf("spread = %g %g %g, want 2.85 3 3.2", q1, med, q3)
	}
	if b := suggestBound(0.031); !near(b, 0.07) {
		t.Errorf("suggestBound(0.031) = %g, want 0.07", b)
	}
	if b := suggestBound(0.001); !near(b, 0.05) {
		t.Errorf("suggestBound floor = %g, want 0.05", b)
	}
}

// Histogram quantiles are interpolated from two parsed /metrics
// documents; the result must match what the registry's own histogram
// reports for the observations made between the scrapes.
func TestHistogramInterpolationFromScrapes(t *testing.T) {
	reg := metrics.NewRegistry()
	bounds := []float64{0.001, 0.002, 0.005, 0.01}
	h := reg.Histogram("ra_test_seconds", "test", bounds, "endpoint", "a")
	other := reg.Histogram("ra_test_seconds", "test", bounds, "endpoint", "b")
	take := func() scrape {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := metrics.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	h.Observe(0.5) // before the window: must not count
	before := take()
	window := metrics.NewRegistry().Histogram("w", "w", bounds)
	for i := 0; i < 1000; i++ {
		v := 0.0005 + float64(i)*0.000006
		h.Observe(v)
		window.Observe(v)
		other.Observe(0.009)
	}
	after := take()
	d := histDelta(before, after, "ra_test_seconds", "endpoint", "a")
	if len(d) != len(bounds)+1 || d[len(d)-1].count != 1000 {
		t.Fatalf("histDelta = %+v", d)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := histQuantile(d, q), window.Quantile(q); !near(got, want) {
			t.Errorf("q%g = %g, registry says %g", q, got, want)
		}
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g", got)
	}
	if got := after.sum("ra_test_seconds_count", "endpoint", "b"); got != 1000 {
		t.Errorf("sum with label filter = %g", got)
	}
	if !after.has("ra_test_") || after.has("ra_rpc_") {
		t.Error("has() prefix match is wrong")
	}
}

// Stalls are the gaps of at least the threshold in the merged
// completion timeline, lead-in and tail included.
func TestStallSummation(t *testing.T) {
	ms := int64(1e6)
	a := []int64{1 * ms, 2 * ms, 50 * ms, 51 * ms}
	b := []int64{3 * ms, 4 * ms, 52 * ms}
	merged := mergeSorted(a, b)
	if !slices.IsSorted(merged) || len(merged) != 7 {
		t.Fatalf("merged = %v", merged)
	}
	// One 46 ms gap (4 → 50) and a 48 ms tail (52 → 100).
	if got := stallSeconds(merged, 100*ms, 20*ms); !near(got, 0.094) {
		t.Errorf("stall = %g s, want 0.094", got)
	}
	if got := stallSeconds(merged, 60*ms, 20*ms); !near(got, 0.046) {
		t.Errorf("stall without tail = %g s, want 0.046", got)
	}
	if got := stallSeconds(nil, 30*ms, 20*ms); !near(got, 0.030) {
		t.Errorf("stall of an empty phase = %g s, want the whole phase", got)
	}
	// With a control, its windows (the odd tenths of a second) are cut
	// out of the timeline first.
	w := int64(controlWindow)
	for _, c := range [][2]int64{{0, 0}, {w - 1, w - 1}, {w + w/2, w}, {2 * w, w}, {2*w + 5, w + 5}, {5*w + 1, 3 * w}} {
		if got := withoutControlWindows(c[0]); got != c[1] {
			t.Errorf("withoutControlWindows(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// A shard node gets two ports at once; freeAddr must never hand out the
// same one twice, although each is free again when it returns.
func TestFreeAddrNeverRepeats(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		addr, err := freeAddr()
		if err != nil {
			t.Fatal(err)
		}
		if seen[addr] {
			t.Fatalf("freeAddr returned %s twice", addr)
		}
		seen[addr] = true
	}
}

// Rounds are summarised by the mean of their better half.
func TestBetterHalf(t *testing.T) {
	lat := []float64{73.4, 103.1, 73.7, 82.6, 73.4, 86.9}
	if got := betterHalf(lat, false); !near(got, (73.4+73.4+73.7)/3) {
		t.Errorf("lower is better: %g", got)
	}
	if got := betterHalf([]float64{200, 180, 210}, true); !near(got, 205) {
		t.Errorf("higher is better, odd count: %g", got)
	}
	if got := betterHalf([]float64{5}, false); got != 5 {
		t.Errorf("one round: %g", got)
	}
}

// The control's correction: a host that slows the product and the
// control alike leaves the reported numbers where they were, and a
// product that slows on its own shows in full.
func TestControlCorrectionCancelsHostPace(t *testing.T) {
	nominal := sliceStat{unitsPerS: 1000, p50: 100}
	quiet := steady{
		product: []sliceStat{{unitsPerS: 500, rowsPerS: 5000, p50: 400}, {unitsPerS: 520, rowsPerS: 5200, p50: 380}, {unitsPerS: 480, rowsPerS: 4800, p50: 420}},
		control: []sliceStat{{unitsPerS: 1000, p50: 100}, {unitsPerS: 1000, p50: 100}, {unitsPerS: 1000, p50: 100}},
	}
	slowed := func(s steady, product, control float64) steady {
		out := steady{}
		for i := range s.product {
			p, c := s.product[i], s.control[i]
			out.product = append(out.product, sliceStat{p.unitsPerS / product, p.rowsPerS / product, p.p50 * product})
			out.control = append(out.control, sliceStat{c.unitsPerS / control, 0, c.p50 * control})
		}
		return out
	}
	quiet.correct(nominal)
	if !near(quiet.unitsPerS, 500) || !near(quiet.p50, 400) || !near(quiet.pace, 1) || !near(quiet.raw.p50, 400) {
		t.Fatalf("at nominal pace: %+v", quiet)
	}
	host := slowed(quiet, 1.5, 1.5) // the host got 1.5× slower under both
	host.correct(nominal)
	if !near(host.unitsPerS, 500) || !near(host.rowsPerS, 5000) || !near(host.p50, 400) || !near(host.pace, 1/1.5) || !near(host.raw.p50, 600) {
		t.Errorf("host 1.5× slower: %+v", host)
	}
	regressed := slowed(quiet, 1.2, 1) // the product alone got 1.2× slower
	regressed.correct(nominal)
	if !near(regressed.unitsPerS, 500/1.2) || !near(regressed.p50, 480) || !near(regressed.pace, 1) {
		t.Errorf("product 1.2× slower: %+v", regressed)
	}
	alone := steady{product: quiet.product}
	alone.correct(nominal)
	if !near(alone.unitsPerS, 500) || !near(alone.p50, 400) || !near(alone.pace, 1) {
		t.Errorf("without a control: %+v", alone)
	}
}

// The load generator divides time between an operation and the control
// in windows, both are answered correctly, and the operation's inputs do
// not depend on how many control operations ran.
func TestControlWindowsShareTheTime(t *testing.T) {
	srv := httptest.NewServer(controlHandler())
	defer srv.Close()
	remote := controlTarget{hc: srv.Client(), base: srv.URL}
	got, err := remote.window(context.Background(), nil, 70000, 70003)
	if err != nil || !slices.Equal(got, slices.Concat(controlTuple(70000), controlTuple(70001), controlTuple(70002))) {
		t.Fatalf("control window = %v, %v", got, err)
	}
	if got, err = remote.point(context.Background(), nil, 1<<30); err != nil || !slices.Equal(got, controlTuple(1<<30)) {
		t.Fatalf("control point = %v, %v", got, err)
	}

	local := newMemControl(4096)
	op, ctl := pointOp(local, controlRanks), pointOp(remote, controlRanks)
	pr := runPhase(context.Background(), 7, 2, 4*controlWindow, 0, 1, op, &ctl)
	if a, f := counts(pr.control); a == 0 || f != 0 {
		t.Fatalf("control: %d attempted, %d failed: %v", a, f, firstErr(pr.control))
	}
	if share := pr.share(); share < 0.2 || share > 0.8 {
		t.Errorf("the operation got %.2f of the clients' time, want about half", share)
	}
	product, control := pr.stats(1e3)
	if product.unitsPerS <= 0 || control.unitsPerS <= 0 || control.p50 <= 0 {
		t.Errorf("slice stats: product %+v control %+v", product, control)
	}
	// Same seed, no control: the operation sees the same ranks.
	again := runPhase(context.Background(), 7, 2, controlWindow, 0, 1, op, nil)
	a, b := pr.logs[0].samples, again.logs[0].samples
	n := min(len(a), len(b), 32)
	if n == 0 {
		t.Fatal("no samples kept")
	}
	for i := 0; i < n; i++ {
		if a[i].k0 != b[i].k0 {
			t.Fatalf("sample %d: rank %d with the control, %d without", i, a[i].k0, b[i].k0)
		}
	}
}

// A span's self time is its duration minus what its children cover, and
// a rung's layer time per batch comes from request spans when there are
// any and from the batch's own self time otherwise.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 1000, Parent: -1},
		{Name: "rung", Start: 100, End: 900, Parent: 0},
		{Name: "batch", Start: 100, End: 400, Parent: 1}, // two requests, 20 of loop overhead
		{Name: "request", Start: 110, End: 250, Parent: 2},
		{Name: "request", Start: 260, End: 400, Parent: 2},
		{Name: "batch", Start: 500, End: 800, Parent: 1}, // no children: all layer time
	}
	self := selfTimes(spans)
	if want := []int64{200, 200, 20, 140, 140, 300}; !slices.Equal(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got, want := layerTimes(spans, 1), []int64{280, 300}; !slices.Equal(got, want) {
		t.Errorf("layerTimes = %v, want %v", got, want)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "embedded", "--seed", "1", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "embedded", "--seed", "1", "--seconds", "10", "--trace=1"}
	if !slices.Equal(got, want) {
		t.Errorf("normalizeArgs = %v", got)
	}
	if got := normalizeArgs([]string{"-trace", "-seed", "0"}); !slices.Equal(got, []string{"-trace", "-seed", "0"}) {
		t.Errorf("bare -trace rewritten: %v", got)
	}
}

// The write stream is a pure function of the seed and deletes only rows
// it inserted earlier.
func TestWriteStreamDeterministic(t *testing.T) {
	d, err := generate(7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newWriteStream(7, d), newWriteStream(7, d)
	live := map[[2]int64]int{}
	dels := 0
	for i := 0; i < 500; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("write %d differs between two streams of one seed", i)
		}
		if x.del {
			dels++
			if live[x.row] == 0 {
				t.Fatalf("write %d deletes %v, which the stream never inserted", i, x.row)
			}
			live[x.row]--
		} else {
			live[x.row]++
		}
	}
	if dels != 100 {
		t.Errorf("%d deletes in 500 writes, want one per four inserts", dels)
	}
}

// One miniature end-to-end pass of the in-process workload: gate,
// repeated set-up, phases, sample checks, metric assembly.
func TestMiniatureEmbeddedPass(t *testing.T) {
	e := &env{tmp: t.TempDir(), nproc: 2}
	o := options{seed: 5, seconds: 0.6, n: 1024, gateN: 256, rounds: 2}
	res, err := runWorkload(context.Background(), e, findWorkload("embedded"), o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.attempted == 0 {
		t.Fatalf("failed=%d attempted=%d notes=%v", res.failed, res.attempted, res.notes)
	}
	for _, d := range e2eDefs {
		m := res.e2eMetric(d.name)
		if m.value <= 0 || m.unit != d.unit {
			t.Errorf("%s = %g %s, want a positive value in %s", d.name, m.value, m.unit, d.unit)
		}
	}
	var names []string
	for _, m := range res.extra {
		names = append(names, m.name)
	}
	if !slices.Equal(names, []string{"point_p99_us", "range_p99_us", "select_p50_ms", "error_ratio"}) {
		t.Errorf("extra metrics = %v", names)
	}
}

// A wrong answer must be caught: the sample check compares against the
// reference and counts a mismatch.
func TestSampleCheckCatchesWrongAnswer(t *testing.T) {
	d, err := generate(3, 512)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(d)
	if err != nil {
		t.Fatal(err)
	}
	good, err := ref.lex.AppendRange(nil, 10, 14)
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{}
	chk.samples("test", ref, []sample{{k0: 10, k1: 14, tuples: good}})
	if chk.wrong != 0 || chk.checked != 1 {
		t.Fatalf("correct sample rejected: %+v", chk)
	}
	bad := slices.Clone(good)
	bad[len(bad)-1]++
	chk.samples("test", ref, []sample{{k0: 10, k1: 14, tuples: bad}})
	if chk.wrong != 1 {
		t.Fatalf("wrong sample accepted: %+v", chk)
	}
}

// The miniature ladder: every L metric is produced, the span file nests
// run → rung → batch → request, and the rank-round count repeats
// exactly for a fixed seed.
func TestMiniatureLadder(t *testing.T) {
	e := &env{tmp: t.TempDir(), nproc: 2}
	spanPath := filepath.Join(e.tmp, "spans.json")
	first, rows, err := runLadder(context.Background(), e, 9, 2048, 0.4, spanPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no ladder rows")
	}
	for _, name := range []string{"access.lex_access_ns", "engine.access_ns", "serve.handler_access_us",
		"client.loopback_access_us", "cluster.coord_access_us", "rpc.rank_call_us", "shard.p4_access_ns",
		"delta.wal_append_us", "engine.catchup_us", "access.build_lex_ms", "harness.trace_overhead_ratio"} {
		if first[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, first[name])
		}
	}
	if first["serve.handler_access_us"]*1e3 < first["access.lex_access_ns"] || first["cluster.coord_access_us"] < first["serve.handler_access_us"] {
		t.Errorf("ladder not increasing: lex %g ns, handler %g us, coordinator %g us",
			first["access.lex_access_ns"], first["serve.handler_access_us"], first["cluster.coord_access_us"])
	}
	raw, err := os.ReadFile(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	depth := func(i int) (d int) {
		for ; doc.Spans[i].Parent >= 0; i = doc.Spans[i].Parent {
			d++
		}
		return d
	}
	sawRequest := false
	for i, s := range doc.Spans {
		if s.End < s.Start || s.Run != doc.Run || s.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Name == "request" {
			sawRequest = true
			if depth(i) != 3 || doc.Spans[s.Parent].Name != "batch" {
				t.Fatalf("request span %d is not run → rung → batch → request", i)
			}
		}
	}
	if !sawRequest {
		t.Error("no request spans recorded")
	}
	second, _, err := runLadder(context.Background(), e, 9, 2048, 0.4, spanPath)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first["cluster.rank_rounds_per_access"], second["cluster.rank_rounds_per_access"]; a != b || a <= 0 {
		t.Errorf("rank rounds per access: %g then %g, want identical and positive", a, b)
	}
}

// BENCHMARK.json and the harness's tables must name the same metrics,
// units, directions and workloads.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", what, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %+v, harness has %+v", what, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v", what, i, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eDefs, true)
	same("per_layer", doc.PerLayer, layerDefs, false)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d = %+v, harness has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if !slices.Equal(doc.Paths, []string{"benchmark"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}
