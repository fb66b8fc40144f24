package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// suggestBound is the rule BENCHMARK.json's bounds were set by: twice
// the observed relative spread, at least 0.05, rounded up to a whole
// percent, and never above the contract's cap of 0.25.
func suggestBound(rel float64) float64 {
	return math.Min(0.25, math.Max(0.05, math.Ceil(2*rel*100)/100))
}

// repeatRuns is the repeatability mode: run the selection N times, each
// with another seed as the driver does, and print per metric the
// median, the quartiles, the relative spread (interquartile distance as
// a share of the median) and the bound that spread asks for. A
// candidate end-to-end metric whose spread exceeds 0.10 does not belong
// in BENCHMARK.json's end_to_end section; the table says so.
func repeatRuns(ctx context.Context, e *env, selected []*workloadDef, o options, n int) int {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	var order []key
	failed := false
	for i := 0; i < n; i++ {
		ro := o
		ro.seed = o.seed + int64(i)
		fmt.Printf("# repeat %d of %d, seed %d\n", i+1, n, ro.seed)
		for _, w := range selected {
			res, err := runOne(ctx, e, w, ro)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			failed = failed || !res.correct()
			for _, m := range append(res.e2e, res.extra...) {
				k := key{w.name, m.name}
				if _, seen := values[k]; !seen {
					order = append(order, k)
				}
				values[k] = append(values[k], m.value)
			}
		}
	}
	fmt.Printf("# %d runs per workload; spread = (q3 − q1) / median, quartiles as Python's statistics.quantiles(n=4)\n", n)
	fmt.Printf("%-14s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, k := range order {
		q1, med, q3, rel := spread(values[k])
		verdict := fmt.Sprintf("%.2f", suggestBound(rel))
		if rel > 0.10 {
			verdict += "  spread > 0.10: a diagnostic, not an end-to-end metric"
		}
		fmt.Printf("%-14s %-18s %12.6g %12.6g %12.6g %8.4f %6s\n", k.workload, k.metric, med, q1, q3, rel, verdict)
	}
	if failed {
		return 1
	}
	return 0
}
