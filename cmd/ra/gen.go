package main

import (
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/workload"
)

func genCmd(args []string) {
	fs := flag.NewFlagSet("ra gen", flag.ExitOnError)
	var (
		kind = fs.String("workload", "twopath", "twopath | kpath | epidemic | star | product")
		n    = fs.Int("n", 10000, "tuples per relation")
		dom  = fs.Int("dom", 0, "domain size (default n/10)")
		k    = fs.Int("k", 3, "path length / star arms")
		skew = fs.Float64("skew", 0, "Zipf skew on join attributes")
		seed = fs.Int64("seed", 1, "random seed")
		out  = fs.String("out", ".", "output directory")
	)
	fs.Parse(args)
	if *dom == 0 {
		*dom = max(*n/10, 2)
	}
	rng := rand.New(rand.NewSource(*seed))

	var q *cq.Query
	var in *database.Instance
	switch *kind {
	case "twopath":
		q, in = workload.TwoPath(rng, *n, *dom, *skew)
	case "kpath":
		q, in = workload.KPath(rng, *k, *n, *dom, *skew)
	case "epidemic":
		q, in = workload.Epidemic(rng, *n, *n/2, max(*n/20, 2), max(*n/100, 2), 1000)
	case "star":
		q, in = workload.Star(rng, *k, *n, *dom)
	case "product":
		q, in, _ = workload.Product(rng, *n)
	default:
		badUsage(fmt.Sprintf("unknown workload %q", *kind))
	}
	check(in.WriteDir(*out))
	for _, name := range in.Names() {
		fmt.Printf("wrote %s (%d tuples)\n", filepath.Join(*out, name+".tsv"), in.Relation(name).Len())
	}
	fmt.Printf("query: %s\n", q.String())
}
