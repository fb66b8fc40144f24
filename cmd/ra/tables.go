package main

import (
	"flag"
	"fmt"

	"rankedaccess/internal/tables"
)

func tablesCmd(args []string) {
	fs := flag.NewFlagSet("ra tables", flag.ExitOnError)
	var (
		fig1 = fs.Bool("fig1", false, "Figure 1: classification overview")
		fig2 = fs.Bool("fig2", false, "Figure 2: example orderings")
		ex11 = fs.Bool("ex11", false, "Example 1.1: bullet classification")
		fig4 = fs.Bool("fig4", false, "Figure 4: preprocessing annotations")
		fig8 = fs.Bool("fig8", false, "Figure 8: direct access by SUM")
		fds  = fs.Bool("fds", false, "Section 8: FD examples")
		all  = fs.Bool("all", false, "everything")
	)
	fs.Parse(args)
	if !(*fig1 || *fig2 || *ex11 || *fig4 || *fig8 || *fds) {
		*all = true
	}
	if *all || *fig1 {
		fmt.Println(tables.Fig1())
	}
	if *all || *fig2 {
		fmt.Println(tables.Fig2())
	}
	if *all || *ex11 {
		fmt.Println(tables.Example11())
	}
	if *all || *fig4 {
		out, err := tables.Fig4()
		check(err)
		fmt.Println(out)
	}
	if *all || *fig8 {
		fmt.Println(tables.Fig8())
	}
	if *all || *fds {
		fmt.Print(tables.FDExamples())
	}
}
