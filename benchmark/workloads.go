package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"rankedaccess"
	"rankedaccess/internal/baseline"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/order"
)

// phase is one fixed-length measured interval of a workload. Lengths
// are the issue's, in seconds; -seconds rescales all of a workload's
// phases by one factor.
type phase struct {
	name    string
	seconds float64
}

// workloadDef is one of the four workloads.
type workloadDef struct {
	name   string
	why    string
	setup  setupFunc
	phases []phase
	rounds int  // deployments booted and measured per run
	writes bool // a paced writer runs beside the readers
}

var workloads = []workloadDef{
	{
		name:   "embedded",
		why:    "the paper's algorithm as library users call it: access, selection and engine do all the work, HTTP and RPC none",
		setup:  setupEmbedded,
		phases: []phase{{"point", 8}, {"range", 8}, {"select", 6}},
		// Set-up is cheap in process and the in-process numbers depend
		// most on where one incarnation's memory landed: more rounds.
		rounds: 6,
	},
	{
		name:   "http_read",
		why:    "what a remote caller sees: serve, admission, metrics middleware, JSON and client do nearly all the work, the engine almost none",
		setup:  setupSingle(false),
		phases: []phase{{"point", 10}, {"range", 10}},
		rounds: 3,
	},
	{
		name:   "http_mixed_rw",
		why:    "reads beside 20 durable writes/s: delta overlays, epoch catch-up and WAL fsync are on the read path here and idle in http_read",
		setup:  setupSingle(true),
		phases: []phase{{"point", 10}, {"range", 10}},
		rounds: 3,
		writes: true,
	},
	{
		name:   "cluster_read",
		why:    "coordinator plus two shard nodes: RPC rank rounds and the shard merge dominate, untouched by the other workloads",
		setup:  setupCluster,
		phases: []phase{{"point", 10}, {"range", 10}},
		rounds: 3,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Constants of the load shape, identical on every commit.
const (
	warmupMax     = time.Second // discarded closed-loop point reads before a round's first phase
	controlRanks  = 1 << 40     // the control answers any rank; it is asked for ranks below this
	embeddedBatch = 256         // probes per timed batch on the embedded workload
	writeRate     = 20          // single-row write batches per second on http_mixed_rw
	pointSample   = 256         // every n-th point operation is kept for checking
)

// options is what the command line fixes for a run.
type options struct {
	seed    int64
	seconds float64 // total measured seconds per workload; 0 = the issue's phase lengths
	n       int     // tuples per relation (fullN outside tests)
	gateN   int     // 0 skips the baseline gate
	rounds  int     // deployments measured per run; 0 = the workload's own count
	rate    float64 // > 0: paced (open-loop) point reads, diagnosis only
	verbose bool    // print every slice
}

// scale returns the factor applied to the workload's phase lengths.
func (o options) scale(w *workloadDef) float64 {
	if o.seconds <= 0 {
		return 1
	}
	var total float64
	for _, p := range w.phases {
		total += p.seconds
	}
	return o.seconds / total
}

// warmup is the discarded lead-in of every round: an eighth of the
// round's measured time, at most warmupMax.
func (o options) warmup(w *workloadDef) time.Duration {
	var total float64
	for _, p := range w.phases {
		total += p.seconds
	}
	rounds := o.rounds
	if rounds == 0 {
		rounds = w.rounds
	}
	eighth := time.Duration(total * o.scale(w) / float64(rounds) / 8 * float64(time.Second))
	return min(warmupMax, eighth)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count, which percentile, …
}

// result is one workload's outcome.
type result struct {
	e2e       []metric // the bounded end-to-end metrics, in BENCHMARK.json order
	extra     []metric // client-observed but unbounded: the tails, select, writes, error ratio
	layer     map[string]metric
	attempted int64
	failed    int64 // failed + refused + wrong-answer operations
	notes     []string
	checks    []string // pass/fail lines (gate, quiesce, crash)
}

func (r *result) correct() bool { return r.failed == 0 }

// account adds a phase's operations to the run's totals and notes its
// first error.
func (r *result) account(what string, pr *phaseResult) {
	a, f := pr.counts()
	r.attempted += a
	r.failed += f
	if err := pr.firstErr(); err != nil {
		r.notes = append(r.notes, fmt.Sprintf("%s: first error: %v", what, err))
	}
}

func (r *result) setLayer(name string, v float64) {
	r.layer[name] = metric{name: name, value: v, unit: layerUnit(name)}
}

// timingNote renders a sample count and which tail the rule allowed.
func timingNote(t timing) string {
	return fmt.Sprintf("n=%d tail=p%.4g", t.N, t.TailQ*100)
}

// round is what one incarnation of the deployment measured.
type round struct {
	phases     map[string]*phaseResult // each phase's product slices, merged
	steady     map[string]steady       // the point and range phases, slice by slice
	writes     *phaseResult
	obs        map[string]observation
	overlayMax float64
	rss        float64
	acked      []write
}

// runWorkload runs one workload end to end: the baseline gate, then
// several rounds of set-up → warm-up → phases, then the post-run checks
// on the last deployment.
//
// Every round boots the deployment afresh and measures all phases on
// it, each phase at 1/rounds of its length; a reported metric is the
// mean over the better half of the rounds of the round's median over
// its slices. One incarnation of the same structures is as fast as the
// program allows or up to 40 % slower for reasons outside it — where
// its memory landed, a burst on the host that a control window missed:
// six embedded rounds of one run read 73.4, 73.4, 73.7, 82.6, 86.9 and
// 103.1 µs per range against a control that stayed within 33.4–35.8 —
// so the slower half says more about the box than about the program.
// setup_s is the median of the same loop's set-ups.
func runWorkload(ctx context.Context, e *env, w *workloadDef, o options) (*result, error) {
	res := &result{layer: map[string]metric{}}
	chk := &checker{}
	dir := filepath.Join(e.tmp, w.name)

	if o.gateN > 0 {
		gd, err := w.setup(ctx, e, o.seed, o.gateN, filepath.Join(dir, "gate"))
		if err != nil {
			return nil, fmt.Errorf("%s: gate set-up: %w", w.name, err)
		}
		chk.gate(ctx, w.name, gd.t, gd.data, o.seed)
		if w.name == "embedded" {
			chk.gateSelect(gd.data, o.seed)
		}
		gd.close()
		res.checks = append(res.checks, fmt.Sprintf("baseline gate n=%d: %s", o.gateN, passFail(chk.wrong == 0)))
	}

	var (
		dep    *deployment
		ref    *reference
		last   *round
		values = map[string][]float64{} // per metric, one value per round
		notes  = map[string]string{}
	)
	add := func(name string, v float64, note string) {
		values[name] = append(values[name], v)
		notes[name] = note
	}
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()
	if o.rounds == 0 {
		o.rounds = w.rounds
	}
	for r := 0; r < o.rounds; r++ {
		if dep != nil {
			dep.close()
			if dep.api == nil {
				// In process the previous round's structures are this
				// process's garbage; without this, peak RSS would say when
				// the collector happened to run, not what one engine needs.
				dep = nil
				debug.FreeOSMemory()
			}
		}
		// setup_s: data generation → the first measured operation can be
		// issued.
		t0 := time.Now()
		var err error
		if dep, err = w.setup(ctx, e, o.seed, o.n, filepath.Join(dir, fmt.Sprintf("round%d", r))); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		add("setup_s", time.Since(t0).Seconds(), "")
		if ref == nil && !w.writes {
			// Same seed, same data in every round: one reference serves all.
			if ref, err = newReference(dep.data); err != nil {
				return nil, err
			}
		}
		// Reads draw ranks below limit: on the write workload |Q(D)|
		// moves, and a rank that was valid at set-up must stay valid, so
		// the last 1/64 of the order is left alone there.
		limit := dep.total
		if w.writes {
			limit -= limit / 64
		}
		rows := min(int64(rangeRows), limit/2)
		// The control is no part of the deployment under test: it is set
		// up after set-up time has been taken.
		if dep.api == nil {
			dep.control = newMemControl(o.n)
		} else if dep.control, err = startControl(ctx, e, dep); err != nil {
			return nil, fmt.Errorf("%s: control: %w", w.name, err)
		}
		if last, err = runRound(ctx, e, w, o, dep, limit, rows, int64(r)); err != nil {
			return nil, err
		}
		for _, p := range w.phases {
			pr := last.phases[p.name]
			res.account(fmt.Sprintf("round %d, %s phase", r, p.name), pr)
			switch {
			case p.name == "select":
				chk.selected(dep.data, pr.samples())
			case ref != nil:
				chk.samples(w.name+"/"+p.name, ref, pr.samples())
			}
		}
		if last.writes != nil {
			res.account(fmt.Sprintf("round %d, writer", r), last.writes)
		}
		pt := last.steady["point"]
		add("point_ops_per_s", pt.unitsPerS, pt.note())
		add("point_p50_us", pt.p50, pt.note())
		add("point_p99_us", pt.tail, pt.note())
		rg := last.steady["range"]
		if o.verbose {
			for _, p := range []struct {
				name string
				s    steady
			}{{"point", pt}, {"range", rg}} {
				fmt.Printf("slices %s round %d %s product %.6g\nslices %s round %d %s control %.6g\n",
					w.name, r, p.name, p.s.product, w.name, r, p.name, p.s.control)
			}
		}
		add("range_rows_per_s", rg.rowsPerS, fmt.Sprintf("%s, %d-row reads", rg.note(), rows))
		add("range_p50_us", rg.p50, rg.note())
		add("range_p99_us", rg.tail, rg.note())
		add("server_rss_mb", last.rss, "VmHWM")
		add("host_pace", (pt.pace+rg.pace)/2, "")
		if sel := last.phases["select"]; sel != nil {
			sl := summarize(sel.latencies(1e6))
			add("select_p50_ms", sl.P50, fmt.Sprintf("n=%d", sl.N))
		}
		if last.writes != nil {
			wl := summarize(last.writes.latencies(1e3))
			add("write_p50_us", wl.P50, timingNote(wl))
			add("write_p99_us", wl.Tail, timingNote(wl))
		}
	}

	// The per-layer numbers scraped around a run come from the last
	// round; so do the checks that need the deployment.
	scraped(res, chk, w, dep, last)
	res.setLayer("loadgen.host_pace", mean(values["host_pace"]))
	if w.writes {
		if err := postWriteChecks(ctx, e, dep, chk, res, last.acked, o); err != nil {
			return nil, err
		}
	}

	report := func(d metricDef) metric {
		v, n := values[d.name], len(values[d.name])
		switch {
		case d.name == "setup_s":
			return metric{d.name, median(v), d.unit, fmt.Sprintf("median of %d set-ups", n)}
		case strings.HasPrefix(d.name, "point_") || strings.HasPrefix(d.name, "range_"):
			return metric{d.name, betterHalf(v, d.better == "higher"), d.unit,
				fmt.Sprintf("mean of the better %d of %d rounds; last round: %s", (n+1)/2, n, notes[d.name])}
		}
		return metric{d.name, mean(v), d.unit, fmt.Sprintf("mean of %d rounds; last round: %s", n, notes[d.name])}
	}
	for _, d := range e2eDefs {
		res.e2e = append(res.e2e, report(d))
	}
	for _, d := range layerDefs[:5] { // the tails, select and the writes
		if len(values[d.name]) > 0 {
			res.extra = append(res.extra, report(d))
		}
	}
	res.attempted += chk.checked
	res.failed += chk.wrong
	res.notes = append(res.notes, chk.notes...)
	res.extra = append(res.extra, metric{"error_ratio", float64(res.failed) / float64(max(res.attempted, 1)), "ratio",
		fmt.Sprintf("%d failed or wrong of %d", res.failed, res.attempted)})
	return res, nil
}

// runRound measures every phase once on a freshly booted deployment,
// with observations (scrapes, CPU times) around each phase.
func runRound(ctx context.Context, e *env, w *workloadDef, o options, dep *deployment, limit, rows, r int64) (*round, error) {
	rd := &round{phases: map[string]*phaseResult{}, steady: map[string]steady{}, obs: map[string]observation{}}
	scale := o.scale(w)
	dur := func(s float64) time.Duration {
		return time.Duration(s * scale / float64(o.rounds) * float64(time.Second))
	}
	seed := o.seed + r*15485863

	var wr *writer
	if w.writes {
		wr = startWriter(ctx, dep, seed)
	}
	point, clients := pointOp(dep.t, limit), e.nproc
	if dep.api == nil {
		point = batchOp(dep.t, limit, embeddedBatch)
	}
	// The paced mode is a diagnosis of the product alone: no control.
	var ctlPoint, ctlRange *operation
	if dep.control != nil && o.rate == 0 {
		cp, cr := pointOp(dep.control, controlRanks), rangeOp(dep.control, controlRanks, rows)
		if dep.api == nil {
			cp = batchOp(dep.control, controlRanks, embeddedBatch)
		}
		ctlPoint, ctlRange = &cp, &cr
	}
	// Every round starts on a cold deployment, so each has its own
	// warm-up; only a miniature run shortens it.
	runPhase(ctx, seed, clients, o.warmup(w), 0, 0, point, ctlPoint)

	observe := func(at string) error {
		ob, err := dep.observe(ctx)
		rd.obs[at] = ob
		return err
	}
	if err := observe("start"); err != nil {
		return nil, err
	}
	var poll *poller
	if w.writes {
		poll = startPoller(ctx, dep.apiAddr)
	}
	for i, p := range w.phases {
		var err error
		pseed := seed + int64(i+1)*104729
		switch p.name {
		case "point":
			every := pointSample
			if point.per > 1 {
				every = 1 // one probe of each 256-probe batch
			}
			rd.phases[p.name], rd.steady[p.name], err = runSliced(ctx, pseed, clients, dur(p.seconds), o.rate, every, point, ctlPoint, dep.nominal(p.name), 1e3)
		case "range":
			every := 16 // range reads are ~100× rarer than points on the process workloads
			if dep.api == nil {
				every = pointSample
			}
			rd.phases[p.name], rd.steady[p.name], err = runSliced(ctx, pseed, clients, dur(p.seconds), 0, every, rangeOp(dep.t, limit, rows), ctlRange, dep.nominal(p.name), 1e3)
		case "select":
			var op operation
			if op, err = selectOp(dep.data); err == nil {
				rd.phases[p.name] = runPhase(ctx, pseed, clients, dur(p.seconds), 0, 1, op, nil)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s, %s phase: %w", w.name, p.name, err)
		}
		if err := observe(p.name); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if wr != nil {
		rd.writes = wr.stop()
		rd.acked = wr.acked
	}
	if poll != nil {
		rd.overlayMax = poll.stop()
	}
	rd.rss = dep.peakRSS()
	return rd, nil
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// selectOp is one rankedaccess.Select under the order with a disruptive
// trio: an O(n) selection per call, nothing prepared.
func selectOp(d *dataset) (operation, error) {
	lex, err := order.ParseLex(d.q, selectOrder)
	if err != nil {
		return operation{}, err
	}
	total, err := rankedaccess.Count(d.q, d.in)
	if err != nil {
		return operation{}, err
	}
	return operation{
		run: func(_ context.Context, c *loadClient, _ bool) (int, sample, error) {
			k := c.rng.Int63n(total)
			a, err := rankedaccess.Select(d.q, d.in, lex, k, nil)
			if err != nil {
				return 0, sample{}, err
			}
			return 1, sample{k0: k, k1: k + 1, tuples: rankedaccess.AnswerTuple(d.q, a)}, nil
		},
	}, nil
}

// gateSelect compares Select under the trio order with the baseline's
// sorted materialisation at gate size.
func (c *checker) gateSelect(d *dataset, seed int64) {
	lex, err := order.ParseLex(d.q, selectOrder)
	if err != nil {
		c.fail("gate select: %v", err)
		return
	}
	want := baseline.SortedByLex(d.q, d.in, lex)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 100; i++ {
		k := rng.Int63n(int64(len(want)))
		a, err := rankedaccess.Select(d.q, d.in, lex, k, nil)
		c.checked++
		if err != nil || lex.Compare(a, want[k]) != 0 {
			c.fail("gate select(%d) = %v (%v), baseline %v", k, a, err, want[k])
		}
	}
}

// selected checks the Select answers of a timed phase at full size,
// where no structure for the trio order can exist: every answer must be
// an answer of Q(D), and answers must be strictly increasing in the
// order as their ranks increase.
func (c *checker) selected(d *dataset, ss []sample) {
	lex, err := order.ParseLex(d.q, selectOrder)
	if err != nil {
		c.fail("select: %v", err)
		return
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].k0 < ss[j].k0 })
	var prev order.Answer
	var prevK int64 = -1
	for _, s := range ss {
		c.checked++
		a := make(order.Answer, d.q.NumVars())
		for j, v := range d.q.Head {
			a[v] = s.tuples[j]
		}
		if !delta.HasAnswer(d.q, d.in, a) {
			c.fail("select(%d) = %v is not an answer of Q(D)", s.k0, s.tuples)
		}
		if prev != nil {
			cmp := lex.Compare(prev, a)
			if (s.k0 > prevK && cmp >= 0) || (s.k0 == prevK && cmp != 0) {
				c.fail("select(%d) = %v does not follow select(%d) in the order", s.k0, s.tuples, prevK)
			}
		}
		prev, prevK = a, s.k0
	}
}

// writer is the paced write stream of http_mixed_rw: one goroutine, its
// own connection, a fixed writeRate batches per second from before the
// warm-up until after the last phase.
type writer struct {
	cancel context.CancelFunc
	done   chan *phaseResult
	acked  []write // batches the server acknowledged, in order
}

func startWriter(ctx context.Context, dep *deployment, seed int64) *writer {
	wctx, cancel := context.WithCancel(ctx)
	w := &writer{cancel: cancel, done: make(chan *phaseResult, 1)}
	stream := newWriteStream(seed, dep.data)
	go func() {
		cl, closeIdle, err := sdk(wctx, dep.apiAddr, 1)
		if err != nil {
			w.done <- &phaseResult{per: 1, logs: []opLog{{attempted: 1, failed: 1, firstErr: err}}}
			return
		}
		defer closeIdle()
		op := operation{run: func(ctx context.Context, _ *loadClient, _ bool) (int, sample, error) {
			next := stream.next()
			// The request must finish even if the run is being torn
			// down, so whether it was acknowledged is never in doubt.
			if _, err := cl.Write(context.WithoutCancel(ctx), next.asClient()); err != nil {
				return 0, sample{}, err
			}
			w.acked = append(w.acked, next)
			return 1, sample{}, nil
		}}
		w.done <- runPhase(wctx, seed, 1, time.Hour, writeRate, 0, op, nil)
	}()
	return w
}

// stop ends the stream after its in-flight batch and returns its log.
func (w *writer) stop() *phaseResult {
	w.cancel()
	return <-w.done
}

// poller scrapes the server once a second during the write workload for
// the one gauge whose peak a before/after pair would miss.
type poller struct {
	cancel context.CancelFunc
	done   chan float64
}

func startPoller(ctx context.Context, addr string) *poller {
	pctx, cancel := context.WithCancel(ctx)
	p := &poller{cancel: cancel, done: make(chan float64, 1)}
	go func() {
		var peak float64
		for {
			if s, err := fetchMetrics(pctx, addr); err == nil {
				peak = max(peak, s.sum("ra_engine_overlay_edits_max"))
			}
			select {
			case <-pctx.Done():
				p.done <- peak
				return
			case <-time.After(time.Second):
			}
		}
	}()
	return p
}

func (p *poller) stop() float64 {
	p.cancel()
	return <-p.done
}

// postWriteChecks runs after http_mixed_rw's writer has stopped: wait
// for background rebuilds to finish, compare the server with a fresh
// build that has exactly the acknowledged writes applied, then crash
// the server (SIGKILL — the OS cache survives, so this is a
// process-crash check, not a power-loss one), reboot it from the
// snapshot directory alone and compare again.
func postWriteChecks(ctx context.Context, e *env, dep *deployment, chk *checker, res *result, acked []write, o options) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := fetchMetrics(ctx, dep.apiAddr)
		if err == nil && s.sum("ra_engine_bg_rebuilding") == 0 {
			break
		}
		if time.Now().After(deadline) {
			chk.fail("quiesce: background rebuilds still running after 30 s (%v)", err)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	want, err := freshWithWrites(o.seed, o.n, acked)
	if err != nil {
		return fmt.Errorf("reference with %d writes: %w", len(acked), err)
	}
	before := chk.wrong
	chk.agree(ctx, "after quiesce", dep.t, want, o.seed+1, 512, 16)
	res.checks = append(res.checks, fmt.Sprintf("quiesced server == fresh build + %d acknowledged writes: %s", len(acked), passFail(chk.wrong == before)))

	before = chk.wrong
	dep.api.kill()
	p, addr, err := bootServer(ctx, e, dep, "serve-recovered", "-snapshot-dir", dep.snapDir)
	if err != nil {
		chk.fail("crash recovery: reboot from %s: %v", dep.snapDir, err)
	} else {
		dep.api, dep.apiAddr, dep.state = p, addr, []*proc{p}
		cl, closeIdle, err := sdk(ctx, addr, 1)
		if err != nil {
			chk.fail("crash recovery: dial: %v", err)
		} else {
			defer closeIdle()
			if pq, err := cl.Prepared(ctx, queryName); err != nil {
				chk.fail("crash recovery: registration %q lost: %v", queryName, err)
			} else {
				chk.agree(ctx, "after crash recovery", remote{pq}, want, o.seed+2, 512, 16)
			}
		}
	}
	res.checks = append(res.checks, fmt.Sprintf("process-crash durability (SIGKILL, reboot from -snapshot-dir on %s): %s", fsType(dep.snapDir), passFail(chk.wrong == before)))
	return nil
}
