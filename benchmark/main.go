// Command benchmark is the repository's benchmark: four workloads
// against the real deployment shapes (the in-process facade, one
// cmd/serve, cmd/serve beside a durable write stream, a coordinator
// with two shard nodes), client-observed end-to-end metrics, a traced
// in-process layer ladder, and correctness checks in the same command.
// See README.md and ../BENCHMARK.json.
//
// Usage (from the repository root):
//
//	go run -C benchmark .                       # all four workloads, untraced
//	go run -C benchmark . -workload http_read   # one workload
//	go run -C benchmark . -trace                # the traced layer ladder only
//	go run -C benchmark . -repeat 5             # spreads and bounds
//
// The driver's form is
// `--workload W --seed N --seconds S --trace 0|1`; the last line of
// standard output is then one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) == 3 && os.Args[1] == controlFlag {
		return controlServer(os.Args[2])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload: embedded, http_read, http_mixed_rw, cluster_read (default: all)")
		seed     = fs.Int64("seed", 1, "the only source of randomness: inputs, probe lists and the write stream derive from it")
		seconds  = fs.Float64("seconds", 0, "measured seconds per workload, split over its phases in fixed proportion (0: the documented phase lengths, about two minutes in all)")
		trace    = fs.Bool("trace", false, "per-layer run: the traced layer ladder, plus (with -workload) that workload's scraped layer metrics")
		traceOut = fs.String("trace-out", "", "span file of a -trace run (default .bench_build/spans-<seed>.json under the repository root)")
		repeat   = fs.Int("repeat", 0, "run the selection N times with seeds seed..seed+N-1 and print medians, quartiles, spreads and bounds")
		rate     = fs.Float64("rate", 0, "diagnosis only: pace point reads at this fixed arrival rate (open loop) instead of the closed loop")
		verbose  = fs.Bool("v", false, "also print every slice of every phase: throughput, rows/s and p50 of the product and of the control, as measured")
	)
	if err := fs.Parse(normalizeArgs(os.Args[1:])); err != nil {
		return 2
	}
	var selected []*workloadDef
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		selected = []*workloadDef{w}
	} else if !*trace {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer e.close()
	if err := e.buildServe(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("# rankedaccess benchmark  commit=%s go=%s nproc=%d seed=%d seconds=%g trace=%t fs=%s\n",
		e.commit(), runtime.Version(), e.nproc, *seed, *seconds, *trace, fsType(e.tmp))

	o := options{seed: *seed, seconds: *seconds, n: fullN, gateN: gateN, rate: *rate, verbose: *verbose}
	if *repeat > 0 {
		return repeatRuns(ctx, e, selected, o, *repeat)
	}
	if *trace {
		return tracedRun(ctx, e, selected, o, *traceOut)
	}
	out := output{Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		res, err := runOne(ctx, e, w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		out.add(res)
		for _, d := range e2eDefs {
			key := d.name
			if len(selected) > 1 {
				key = w.name + "/" + key // several workloads ran: qualify
			}
			m := res.e2eMetric(d.name)
			out.Metrics[key] = jsonMetric{m.value, m.unit}
		}
	}
	return out.finish()
}

// normalizeArgs lets the boolean -trace also be written the driver's
// way, as `--trace 0` or `--trace 1`.
func normalizeArgs(args []string) []string {
	out := slices.Clone(args)
	for i := 0; i+1 < len(out); i++ {
		if (out[i] == "-trace" || out[i] == "--trace") && (out[i+1] == "0" || out[i+1] == "1") {
			out[i] = out[i] + "=" + out[i+1]
			out = slices.Delete(out, i+1, i+2)
		}
	}
	return out
}

// runOne runs a workload and prints its report.
func runOne(ctx context.Context, e *env, w *workloadDef, o options) (*result, error) {
	fmt.Printf("# workload %s — %s\n", w.name, w.why)
	var parts []string
	scale := o.scale(w)
	parts = append(parts, fmt.Sprintf("warmup %s per round", o.warmup(w)))
	for _, p := range w.phases {
		parts = append(parts, fmt.Sprintf("%s %.2fs", p.name, p.seconds*scale))
	}
	fmt.Printf("#   phases: %s; n=%d per relation, %d-row ranges, %d closed-loop clients\n", strings.Join(parts, ", "), o.n, rangeRows, e.nproc)
	if o.rate > 0 {
		fmt.Printf("#   PACED point reads at %g/s — diagnosis only; these numbers are not the closed-loop metrics\n", o.rate)
	}
	if w.name == "embedded" {
		// Reset the harness's own peak-RSS mark, so an earlier workload
		// or repeat does not show up as this one's memory.
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
	}
	res, err := runWorkload(ctx, e, w, o)
	if err != nil {
		return nil, err
	}
	for _, c := range res.checks {
		fmt.Printf("check  %s: %s\n", w.name, c)
	}
	for _, m := range res.e2e {
		printMetric(w.name, m)
	}
	for _, m := range res.extra {
		printMetric(w.name, m)
	}
	for _, d := range layerDefs {
		if m, ok := res.layer[d.name]; ok {
			printMetric(w.name, m)
		}
	}
	for _, n := range res.notes {
		fmt.Printf("note   %s: %s\n", w.name, n)
	}
	return res, nil
}

func printMetric(workload string, m metric) {
	line := fmt.Sprintf("%s/%s %.6g %s", workload, m.name, m.value, m.unit)
	if m.note != "" {
		line += "  # " + m.note
	}
	fmt.Println(line)
}

func (r *result) e2eMetric(name string) metric {
	for _, m := range r.e2e {
		if m.name == name {
			return m
		}
	}
	return metric{name: name}
}

// jsonMetric is a metric in the final JSON line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final line of standard output: one JSON object with
// exactly these keys.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (o *output) add(r *result) {
	o.Attempted += r.attempted
	o.Failed += r.failed
}

// finish prints the line and returns the exit code: non-zero on any
// failed, refused or wrong operation.
func (o *output) finish() int {
	o.Correct = o.Failed == 0
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !o.Correct {
		return 1
	}
	return 0
}

// tracedRun is the per-layer run: the ladder, traced, and — when a
// workload is selected — a shortened pass of it for the layer metrics
// that are scraped around a run. End-to-end metrics are never reported
// from here. The ladder and the workload pass share -seconds evenly.
func tracedRun(ctx context.Context, e *env, selected []*workloadDef, o options, spanPath string) int {
	if spanPath == "" {
		spanPath = filepath.Join(e.buildDir, fmt.Sprintf("spans-%d.json", o.seed))
	}
	ladderSeconds := 10.0
	if o.seconds > 0 {
		ladderSeconds = o.seconds / 2
		o.seconds /= 2
	}
	values, rows, err := runLadder(ctx, e, o.seed, o.n, ladderSeconds, spanPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# layer ladder: one probe list of %d ranks at every rung, n=%d; spans in %s\n", ladderProbes, o.n, spanPath)
	fmt.Printf("%-34s %14s %-6s %10s %-30s %s\n", "rung", "value", "unit", "allocs/op", "tax", "traced/untraced")
	for _, r := range rows {
		allocs, overhead := "-", "-"
		if r.allocs >= 0 {
			allocs = fmt.Sprintf("%.4g", r.allocs)
		}
		if r.overhead > 0 {
			overhead = fmt.Sprintf("%.3f", r.overhead)
		}
		fmt.Printf("%-34s %14.6g %-6s %10s %-30s %s\n", r.name, r.value, r.unit, allocs, r.tax, overhead)
	}
	out := output{Metrics: map[string]jsonMetric{}}
	out.Attempted = 1 // the ladder's own cross-rung check; a mismatch fails the run above
	if len(selected) == 1 {
		o.gateN, o.rounds = 0, 1
		res, err := runOne(ctx, e, selected[0], o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		out.add(res)
		for _, m := range res.extra {
			values[m.name] = m.value
		}
		for name, m := range res.layer {
			values[name] = m.value
		}
	}
	for _, d := range layerDefs {
		out.Metrics[d.name] = jsonMetric{values[d.name], d.unit}
	}
	return out.finish()
}
