package main

import (
	"flag"
	"fmt"

	"rankedaccess"
)

func classifyCmd(args []string) {
	fs := flag.NewFlagSet("ra classify", flag.ExitOnError)
	var spec specFlags
	spec.declare(fs)
	fs.Parse(args)
	q, l, fds := spec.parsed()

	fmt.Printf("query: %s\n", q.String())
	if spec.order != "" {
		fmt.Printf("order: ⟨%s⟩\n", l.Render(q))
	}
	if len(fds) > 0 {
		fmt.Printf("FDs:   %s\n", fds.Render(q))
	}
	fmt.Println()
	for _, r := range []struct {
		name string
		p    rankedaccess.Problem
	}{
		{"direct access by LEX", rankedaccess.DirectAccessLex},
		{"selection by LEX    ", rankedaccess.SelectionLex},
		{"direct access by SUM", rankedaccess.DirectAccessSum},
		{"selection by SUM    ", rankedaccess.SelectionSum},
	} {
		v := rankedaccess.Classify(r.p, q, l, fds)
		fmt.Printf("%s  %s\n", r.name, v.String())
		if len(v.Trio) == 3 {
			fmt.Printf("%21s disruptive trio: (%s, %s, %s)\n", "", v.Trio[0], v.Trio[1], v.Trio[2])
		}
		if len(v.SPath) > 0 {
			fmt.Printf("%21s path certificate: %v\n", "", v.SPath)
		}
	}
}
