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
// `rabench -h` lists the experiments (the table `all` below).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"rankedaccess/internal/experiments"
)

// experiment is one reproduction table: its -exp name, the smallest n
// of its sweep, and the sweep itself.
type experiment struct {
	name string
	base int
	run  func(ns []int, seed int64) experiments.Table
}

// all is every experiment, in the order `-exp all` prints them. Sweeps
// start at 4096, at 512 where the baseline is super-linear, and at 128
// where it materializes n² answers.
var all = []experiment{
	{"thm33", 4096, func(ns []int, seed int64) experiments.Table { return experiments.Theorem33(ns, 1000, seed) }},
	{"thm41", 4096, func(ns []int, seed int64) experiments.Table { return experiments.Theorem41(ns, 1000, seed) }},
	{"thm51", 4096, func(ns []int, seed int64) experiments.Table { return experiments.Theorem51(ns, 1000, seed) }},
	{"thm61", 4096, experiments.Theorem61},
	{"thm73", 512, experiments.Theorem73},
	{"fig8", 128, experiments.Fig8Hardness},
	{"enum", 512, func(ns []int, seed int64) experiments.Table { return experiments.RankedEnumContrast(ns, 100, seed) }},
	{"fd", 4096, func(ns []int, seed int64) experiments.Table { return experiments.FDRescue(ns, 1000, seed) }},
	{"epidemic", 4096, experiments.Epidemic},
	{"decompose", 512, experiments.TriangleDecomposition},
	{"union", 512, experiments.UnionAccess},
}

func main() {
	names := make([]string, len(all))
	for i, x := range all {
		names[i] = x.name
	}
	var (
		exp        = flag.String("exp", "all", strings.Join(names, " | ")+" | all")
		scale      = flag.Int("scale", 2, "sweep scale 1..4 (each step quadruples the largest n)")
		seed       = flag.Int64("seed", 42, "random seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	)
	flag.Parse()
	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "rabench: unknown experiment %q (want %s | all)\n", *exp, strings.Join(names, " | "))
		os.Exit(2)
	}

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

	for _, x := range all {
		if *exp != "all" && *exp != x.name {
			continue
		}
		ns := []int{x.base}
		for i := 1; i < 3+*scale; i++ {
			ns = append(ns, ns[i-1]*2)
		}
		fmt.Println(x.run(ns, *seed).Render())
	}
}
