package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"rankedaccess"
	"rankedaccess/client"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/workload"
)

// The one query every workload serves: the two-path join, ordered by
// x, y, z (tractable for direct access). selectOrder has the disruptive
// trio x, z, y — direct access intractable, selection tractable — so
// Select cannot be answered from the access structure.
const (
	queryText   = "Q(x, y, z) :- R(x, y), S(y, z)"
	orderText   = "x, y, z"
	selectOrder = "x, z, y"
	queryName   = "bench"

	fullN     = 262144 // tuples per relation; |Q(D)| ≈ 1.3e9, nothing can be answered by materialising
	gateN     = 2048   // correctness gate size: small enough for the materialising baseline
	skew      = 0.4
	rangeRows = 512 // rows per range read
)

// dataset is one generated input: the instance, its parsed query and
// orders, and (for process workloads) the TSV directory it was written
// to. Everything derives from (seed, n).
type dataset struct {
	n   int
	q   *cq.Query
	in  *database.Instance
	lex order.Lex // orderText
	dir string    // TSV directory; empty until writeTSV
}

// domain is the value-domain size TwoPath draws from.
func domain(n int) int { return max(n/4, 2) }

// generate builds the instance for (seed, n): workload.TwoPath with
// dom = n/4 and skew 0.4 on the join attribute.
func generate(seed int64, n int) (*dataset, error) {
	q, in := workload.TwoPath(rand.New(rand.NewSource(seed)), n, domain(n), skew)
	lex, err := order.ParseLex(q, orderText)
	if err != nil {
		return nil, err
	}
	return &dataset{n: n, q: q, in: in, lex: lex}, nil
}

// writeTSV writes one <Relation>.tsv per relation into dir, the format
// cmd/serve -data loads.
func (d *dataset) writeTSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range d.in.Names() {
		f, err := os.Create(filepath.Join(dir, name+".tsv"))
		if err != nil {
			return err
		}
		if err := d.in.WriteRelation(name, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	d.dir = dir
	return nil
}

// target is one deployment shape as its caller sees it. Every workload
// and every correctness check goes through it, so the in-process facade
// and the remote SDK are probed by the same code.
type target interface {
	// point appends the head tuple of rank k to dst.
	point(ctx context.Context, dst []int64, k int64) ([]int64, error)
	// window appends the head tuples of ranks k0 ≤ k < k1 to dst, flat.
	window(ctx context.Context, dst []int64, k0, k1 int64) ([]int64, error)
	count(ctx context.Context) (int64, error)
}

// embedded probes the root facade: PreparedQuery.Acquire, then the
// handle's allocation-free append paths.
type embedded struct {
	pq *rankedaccess.PreparedQuery
}

func (t embedded) point(_ context.Context, dst []int64, k int64) ([]int64, error) {
	h, err := t.pq.Acquire()
	if err != nil {
		return dst, err
	}
	return h.AppendTuple(dst, k)
}

func (t embedded) window(_ context.Context, dst []int64, k0, k1 int64) ([]int64, error) {
	h, err := t.pq.Acquire()
	if err != nil {
		return dst, err
	}
	return h.AccessRange(dst, k0, k1)
}

func (t embedded) count(context.Context) (int64, error) {
	h, err := t.pq.Acquire()
	if err != nil {
		return 0, err
	}
	return h.Total(), nil
}

// remote probes a server (single node or coordinator) through the SDK.
type remote struct {
	p *client.Prepared
}

func (t remote) point(ctx context.Context, dst []int64, k int64) ([]int64, error) {
	ans, err := t.p.Access(ctx, k)
	if err != nil {
		return dst, err
	}
	if len(ans) != 1 || ans[0].Err != "" {
		return dst, fmt.Errorf("access(%d): unexpected answers %+v", k, ans)
	}
	return append(dst, ans[0].Tuple...), nil
}

func (t remote) window(ctx context.Context, dst []int64, k0, k1 int64) ([]int64, error) {
	rows, err := t.p.Range(ctx, k0, k1)
	if err != nil {
		return dst, err
	}
	for _, r := range rows {
		dst = append(dst, r...)
	}
	return dst, nil
}

func (t remote) count(ctx context.Context) (int64, error) { return t.p.Count(ctx) }

// writeStream is the seeded write workload of http_mixed_rw: single-row
// batches into R, every fifth one deleting a row an earlier batch of the
// stream inserted. x is uniform over the domain; y is uniform over the
// join keys of ordinary fan-out — those with 1 to maxFanout matching S
// rows — so every write changes a few answers. Uniform y over the whole
// domain would make most writes change nothing (Zipf leaves most keys
// without S rows) and, a few times per run, hit a key with thousands of
// matches, which stalls the server for seconds: a run's numbers would
// then be decided by whether its seed drew such a key.
type writeStream struct {
	rng      *rand.Rand
	dom      int64
	keys     []int64
	i        int
	inserted [][2]int64
}

// maxFanout bounds the S rows matching a written row's join key.
const maxFanout = 1

func newWriteStream(seed int64, d *dataset) *writeStream {
	fanout := map[int64]int{}
	s := d.in.Relation("S")
	for i := 0; i < s.Len(); i++ {
		fanout[s.Tuple(i)[0]]++
	}
	var keys []int64
	for y, c := range fanout {
		if c <= maxFanout {
			keys = append(keys, y)
		}
	}
	slices.Sort(keys) // map order must not leak into the stream
	return &writeStream{rng: rand.New(rand.NewSource(seed ^ 0x77726974)), dom: int64(domain(d.n)), keys: keys}
}

// write is one batch of the stream: one row of R, inserted or deleted.
type write struct {
	del bool
	row [2]int64
}

func (w *writeStream) next() write {
	w.i++
	if w.i%5 == 0 && len(w.inserted) > 0 {
		j := w.rng.Intn(len(w.inserted))
		row := w.inserted[j]
		w.inserted[j] = w.inserted[len(w.inserted)-1]
		w.inserted = w.inserted[:len(w.inserted)-1]
		return write{del: true, row: row}
	}
	row := [2]int64{w.rng.Int63n(w.dom), w.keys[w.rng.Intn(len(w.keys))]}
	w.inserted = append(w.inserted, row)
	return write{row: row}
}

// asClient renders the batch for client.Write.
func (w write) asClient() client.Write {
	rows := [][]client.Value{{w.row[0], w.row[1]}}
	if w.del {
		return client.Write{Relation: "R", Delete: rows}
	}
	return client.Write{Relation: "R", Insert: rows}
}

// asMutation renders the batch for Engine.ApplyBatch.
func (w write) asMutation() rankedaccess.Mutation {
	op := rankedaccess.OpInsert
	if w.del {
		op = rankedaccess.OpDelete
	}
	return rankedaccess.Mutation{Op: op, Rel: "R", Arity: 2, Rows: []int64{w.row[0], w.row[1]}}
}
