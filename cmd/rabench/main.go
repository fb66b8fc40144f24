// Command rabench runs the reproduction harness: one parameter sweep per
// paper claim (theorem / figure), printing measured preprocessing,
// access, selection, and baseline times so the claimed complexity shapes
// can be verified.
//
// Usage:
//
//	rabench                     # all experiments at default scales
//	rabench -exp thm33 -scale 3 # one experiment, larger sweep
//
// Profiling hot-path regressions without editing code:
//
//	rabench -exp thm33 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Tracing overhead benchmark (per-request serving cost with and without
// an active tracer, for CI's traced/untraced ratio gate — see
// tracing.go):
//
//	rabench -tracing > tracing.txt
//	go run ./cmd/benchgate -new tracing.txt \
//	  -ratio 'BenchmarkTracedAccess/BenchmarkUntracedAccess<=1.05'
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rankedaccess/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "thm33 | thm41 | thm51 | thm61 | thm73 | fig8 | enum | fd | epidemic | all")
		scale      = flag.Int("scale", 2, "sweep scale 1..4 (each step quadruples the largest n)")
		seed       = flag.Int64("seed", 42, "random seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
		mixed      = flag.Bool("mixed", false, "benchmark read latency under concurrent writes (MVCC write path) instead of the experiments")
		tracing    = flag.Bool("tracing", false, "benchmark per-request tracing overhead (traced vs untraced) instead of the experiments")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rabench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rabench: writing heap profile: %v\n", err)
			}
		}()
	}

	if *mixed {
		if err := runMixedBench(os.Stdout, *scale, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tracing {
		if err := runTracingBench(os.Stdout, *scale, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		return
	}

	sweep := func(base int) []int {
		out := []int{base}
		for i := 1; i < 3+*scale; i++ {
			base *= 2
			out = append(out, base)
		}
		return out
	}
	big := sweep(4096)
	small := sweep(512) // experiments whose baseline is super-linear
	quad := sweep(128)  // experiments whose baseline materializes n² answers

	run := func(name string, tb func() experiments.Table) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Println(tb().Render())
	}
	run("thm33", func() experiments.Table { return experiments.Theorem33(big, 1000, *seed) })
	run("thm41", func() experiments.Table { return experiments.Theorem41(big, 1000, *seed) })
	run("thm51", func() experiments.Table { return experiments.Theorem51(big, 1000, *seed) })
	run("thm61", func() experiments.Table { return experiments.Theorem61(big, *seed) })
	run("thm73", func() experiments.Table { return experiments.Theorem73(small, *seed) })
	run("fig8", func() experiments.Table { return experiments.Fig8Hardness(quad, *seed) })
	run("enum", func() experiments.Table { return experiments.RankedEnumContrast(small, 100, *seed) })
	run("fd", func() experiments.Table { return experiments.FDRescue(big, 1000, *seed) })
	run("epidemic", func() experiments.Table { return experiments.Epidemic(big, *seed) })
	run("decompose", func() experiments.Table { return experiments.TriangleDecomposition(small, *seed) })
	run("union", func() experiments.Table { return experiments.UnionAccess(small, *seed) })

	switch *exp {
	case "all", "thm33", "thm41", "thm51", "thm61", "thm73", "fig8", "enum", "fd", "epidemic",
		"decompose", "union":
	default:
		fmt.Fprintf(os.Stderr, "rabench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
