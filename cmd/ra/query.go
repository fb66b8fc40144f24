package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"rankedaccess"
	"rankedaccess/client"
)

func queryCmd(args []string) {
	fs := flag.NewFlagSet("ra query", flag.ExitOnError)
	var (
		spec     specFlags
		ks       multi
		dataDir  = fs.String("data", ".", "directory with <Relation>.tsv files")
		fallback = fs.Bool("fallback", false, "materialize+sort when the order is intractable")
		count    = fs.Bool("count", false, "print the answer count and exit")
		remote   = fs.String("remote", "", "base URL of a running serve instance; probe it via the v1 API")
		name     = fs.String("name", "cli", "prepared-query name to register (remote mode)")
		stream   = fs.Int("stream", 0, "stream the first N answers as TSV rows on stdout")
	)
	spec.declare(fs)
	fs.Var(&ks, "k", "0-based index to access (repeatable; default 0)")
	fs.Parse(args)
	q, l, fds := spec.parsed()
	if len(ks) == 0 {
		ks = multi{"0"}
	}
	idx := make([]int64, len(ks))
	for i, s := range ks {
		k, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			badUsage(fmt.Sprintf("bad index %q", s))
		}
		idx[i] = k
	}
	w := bufio.NewWriter(os.Stdout)
	if *remote != "" {
		queryRemote(w, *remote, *name, spec, idx, *count, *stream)
	} else {
		queryLocal(w, *dataDir, spec, q, l, fds, idx, *fallback, *count, *stream)
	}
	check(w.Flush())
}

func queryLocal(w *bufio.Writer, dataDir string, spec specFlags, q *rankedaccess.Query, l rankedaccess.LexOrder, fds rankedaccess.FDSet, ks []int64, fallback, count bool, stream int) {
	in := rankedaccess.NewInstance()
	_, err := in.ReadDir(dataDir)
	check(err)
	fmt.Fprintf(os.Stderr, "loaded %d tuples\n", in.Size())

	if stream > 0 {
		// Stream through the facade engine's prepared-query cursor —
		// the same planning (tractable structure or materialized
		// fallback) the server applies remotely.
		e := rankedaccess.NewEngine(in, rankedaccess.EngineOptions{})
		pq, err := e.Register("cli", rankedaccess.EngineSpec{Query: spec.q, Order: spec.order, FDs: spec.fds})
		check(err)
		cur, err := pq.Cursor()
		check(err)
		fmt.Fprintf(os.Stderr, "answers: %d\n", cur.Total())
		for row, err := range cur.All(0, int64(stream)) {
			check(err)
			writeRow(w, row)
		}
		return
	}

	var acc rankedaccess.Accessor
	if fallback {
		var tractable bool
		acc, tractable, err = rankedaccess.NewDirectAccessAny(q, in, l, fds)
		if err == nil && !tractable {
			fmt.Fprintln(os.Stderr, "note: order is intractable; served by materialize+sort")
		}
	} else {
		acc, err = rankedaccess.NewDirectAccess(q, in, l, fds)
	}
	check(err)
	fmt.Fprintf(w, "answers: %d\n", acc.Total())
	if count {
		return
	}
	for _, k := range ks {
		if a, err := acc.Access(k); err != nil {
			fmt.Fprintf(w, "  [%d] %v\n", k, err)
		} else {
			fmt.Fprintf(w, "  [%d] %v\n", k, rankedaccess.AnswerTuple(q, a))
		}
	}
}

// streamBatch is the remote cursor page size: large enough to amortize
// HTTP round trips, small enough to start printing immediately.
const streamBatch = 8192

func queryRemote(w *bufio.Writer, base, name string, spec specFlags, ks []int64, count bool, stream int) {
	ctx := context.Background()
	c, err := client.Dial(ctx, base, nil)
	check(err)
	p, err := c.Register(ctx, name, client.Spec{Query: spec.q, Order: spec.order, FDs: spec.fds})
	check(err)
	fmt.Fprintf(os.Stderr, "registered %q (%s) at %s\n", name, p.Info.Mode, base)

	if stream > 0 {
		fmt.Fprintf(os.Stderr, "answers: %d\n", p.Info.Total)
		cur, err := p.Cursor(ctx, 0)
		check(err)
		for remaining := min(int64(stream), cur.Total()); remaining > 0 && !cur.Done(); {
			got, err := cur.Stream(ctx, int(min(remaining, streamBatch)), func(row []client.Value) error {
				writeRow(w, row)
				return nil
			})
			check(err)
			if got == 0 {
				break
			}
			remaining -= int64(got)
		}
		check(cur.Close(ctx))
		return
	}

	fmt.Fprintf(w, "answers: %d\n", p.Info.Total)
	if count {
		return
	}
	answers, err := p.Access(ctx, ks...)
	check(err)
	for _, a := range answers {
		if a.Err != "" {
			fmt.Fprintf(w, "  [%d] %s\n", a.K, a.Err)
		} else {
			fmt.Fprintf(w, "  [%d] %v\n", a.K, a.Tuple)
		}
	}
}

// writeRow prints one answer as tab-separated values — identical
// bytes from the local cursor and the remote NDJSON stream.
func writeRow(w *bufio.Writer, row []int64) {
	for j, v := range row {
		if j > 0 {
			w.WriteByte('\t')
		}
		w.WriteString(strconv.FormatInt(v, 10))
	}
	w.WriteByte('\n')
}
