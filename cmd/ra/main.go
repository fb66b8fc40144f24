// Command ra is the command-line toolbox beside cmd/serve: one binary,
// one subcommand per job.
//
//	ra classify -q "Q(x, y, z) :- R(x, y), S(y, z)" [-order "x, z, y"] [-fd "R: x -> y"]...
//	ra gen      -workload twopath -n 100000 -dom 1000 -skew 0.5 -out /tmp/data
//	ra query    -q ... -order ... -data /tmp/data -k 0 -k 100 [-fallback]
//	ra query    -q ... -order ... -remote http://localhost:8080 -k 0 -k 100
//	ra query    -q ... -order ... -data /tmp/data -stream 10000 > rows.tsv
//	ra snapshot -file /var/lib/ra/snapshot-...-v7.rka [-json] [-sections]
//	ra snapshot -dir /var/lib/ra
//	ra tables   [-fig1] [-fig2] [-ex11] [-fig4] [-fig8] [-fds] [-all]
//
// classify runs the paper's dichotomies on a query and prints the
// verdict for all four problems (direct access / selection × LEX / SUM),
// with hardness certificates. gen writes a synthetic workload
// (twopath | kpath | epidemic | star | product) as one <Relation>.tsv
// per relation — the layout `serve -data` and `ra query -data` load.
// tables regenerates the paper's figures and tables (all of them when no
// flag picks one).
//
// query builds a direct-access structure over the TSVs in -data and
// answers index probes — or, with -remote, sends the same probes to a
// running cmd/serve through the v1 prepared-query API of the client
// SDK (the server holds the data). With -fallback, intractable orders
// are served by materialize+sort instead of failing. With -stream N the
// first N answers go to stdout as tab-separated rows and all
// diagnostics to stderr, so a local stream (the facade engine's
// prepared-query cursor) and a remote one (an NDJSON cursor stream over
// HTTP) of the same query are the same bytes; TestQueryStreamLocalEqualsRemote
// holds them to it.
//
// snapshot inspects the files engine.Checkpoint / `serve -snapshot-dir`
// write. Opening one verifies it end to end — magic, format version,
// every section checksum, the meta document's consistency, the same
// validation a warm start performs — so exit status 0 means the file
// restores cleanly on this host.
//
// Exit status: 0 done, 1 the job failed, 2 bad usage.
package main

import (
	"flag"
	"fmt"
	"os"

	"rankedaccess"
)

var commands = map[string]func(args []string){
	"classify": classifyCmd,
	"gen":      genCmd,
	"query":    queryCmd,
	"snapshot": snapshotCmd,
	"tables":   tablesCmd,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: ra classify|gen|query|snapshot|tables [flags]  (ra <command> -h lists them)")
		os.Exit(2)
	}
	commands[os.Args[1]](os.Args[2:])
}

// check ends the subcommand on an error: exit status 1.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ra %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

// badUsage ends the subcommand on a command line it cannot run: exit
// status 2, as the flag package's own complaints.
func badUsage(msg string) {
	fmt.Fprintf(os.Stderr, "ra %s: %s\n", os.Args[1], msg)
	os.Exit(2)
}

// multi is a repeatable string flag.
type multi []string

func (m *multi) String() string     { return fmt.Sprint([]string(*m)) }
func (m *multi) Set(s string) error { *m = append(*m, s); return nil }

// specFlags is the -q / -order / -fd trio classify and query share.
type specFlags struct {
	q, order string
	fds      multi
}

func (s *specFlags) declare(fs *flag.FlagSet) {
	fs.StringVar(&s.q, "q", "", "conjunctive query, e.g. \"Q(x, z) :- R(x, y), S(y, z)\" (required)")
	fs.StringVar(&s.order, "order", "", "lexicographic order, e.g. \"x, z desc\" (empty = no order constraint)")
	fs.Var(&s.fds, "fd", "unary functional dependency \"R: x -> y\" (repeatable)")
}

// parsed is the one place the three texts become a query, an order over
// it and its FDs.
func (s *specFlags) parsed() (*rankedaccess.Query, rankedaccess.LexOrder, rankedaccess.FDSet) {
	if s.q == "" {
		badUsage("-q is required")
	}
	q, err := rankedaccess.ParseQuery(s.q)
	check(err)
	l, err := rankedaccess.ParseLex(q, s.order)
	check(err)
	fds, err := rankedaccess.ParseFDs(q, s.fds...)
	check(err)
	return q, l, fds
}
