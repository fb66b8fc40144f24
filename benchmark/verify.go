package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"rankedaccess"
	"rankedaccess/internal/access"
	"rankedaccess/internal/baseline"
	"rankedaccess/internal/order"
)

// checker accumulates correctness findings: how many answers were
// compared, how many were wrong, and the first few descriptions.
type checker struct {
	checked int64
	wrong   int64
	notes   []string
}

func (c *checker) fail(format string, args ...any) {
	c.wrong++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// gate compares one deployment shape against internal/baseline, which
// materialises Q(D) and sorts it — an implementation that shares
// nothing with the access structures. 1 000 seeded point reads, 50
// windows and Count must all agree.
func (c *checker) gate(ctx context.Context, shape string, t target, d *dataset, seed int64) {
	want := baseline.SortedByLex(d.q, d.in, d.lex)
	total := int64(len(want))
	c.checked++
	if got, err := t.count(ctx); err != nil || got != total {
		c.fail("gate %s: count = %d (%v), baseline has %d answers", shape, got, err, total)
		return
	}
	rng := rand.New(rand.NewSource(seed))
	head := func(k int64) []int64 { return rankedaccess.AnswerTuple(d.q, want[k]) }
	var buf []int64
	for i := 0; i < 1000; i++ {
		k := rng.Int63n(total)
		var err error
		buf, err = t.point(ctx, buf[:0], k)
		c.checked++
		if err != nil || !slices.Equal(buf, head(k)) {
			c.fail("gate %s: access(%d) = %v (%v), baseline %v", shape, k, buf, err, head(k))
		}
	}
	rows := min(int64(rangeRows), total)
	for i := 0; i < 50; i++ {
		k0 := rng.Int63n(total - rows + 1)
		var err error
		buf, err = t.window(ctx, buf[:0], k0, k0+rows)
		c.checked++
		if err != nil || len(buf) != int(rows)*width {
			c.fail("gate %s: range(%d,%d): %d values (%v)", shape, k0, k0+rows, len(buf), err)
			continue
		}
		for j := int64(0); j < rows; j++ {
			if !slices.Equal(buf[j*width:(j+1)*width], head(k0+j)) {
				c.fail("gate %s: range(%d,%d)[%d] = %v, baseline %v", shape, k0, k0+rows, j, buf[j*width:(j+1)*width], head(k0+j))
				break
			}
		}
	}
}

// reference is the structure the in-phase samples are checked against:
// access.Lex built directly by the harness from the same seed, below
// every serving layer.
type reference struct {
	d   *dataset
	lex *access.Lex
}

func newReference(d *dataset) (*reference, error) {
	lex, err := access.BuildLex(d.q, d.in, d.lex)
	if err != nil {
		return nil, err
	}
	return &reference{d: d, lex: lex}, nil
}

// samples checks answers kept during a timed phase: byte-equal tuples,
// range[i] == access(k0+i), and the system's tuple ranks back to the
// rank it was asked for (Inverted(Access(k)) == k).
func (c *checker) samples(phase string, ref *reference, ss []sample) {
	var want []int64
	ans := make(order.Answer, ref.d.q.NumVars())
	for _, s := range ss {
		c.checked++
		var err error
		want, err = ref.lex.AppendRange(want[:0], s.k0, s.k1)
		if err != nil || !slices.Equal(want, s.tuples) {
			c.fail("%s: ranks [%d,%d) differ from the reference (%v)", phase, s.k0, s.k1, err)
			continue
		}
		for i := int64(0); i < s.k1-s.k0; i += max(1, (s.k1-s.k0)/4) {
			row := s.tuples[i*width : (i+1)*width]
			one, err := ref.lex.AppendTuple(nil, s.k0+i)
			if err != nil || !slices.Equal(one, row) {
				c.fail("%s: range[%d] != access(%d)", phase, i, s.k0+i)
				break
			}
			for j, v := range ref.d.q.Head {
				ans[v] = row[j]
			}
			if k, err := ref.lex.Inverted(ans); err != nil || k != s.k0+i {
				c.fail("%s: inverted(access(%d)) = %d (%v)", phase, s.k0+i, k, err)
				break
			}
		}
	}
}

// agree compares two deployment shapes on Count, seeded point reads and
// windows; used after http_mixed_rw quiesces and after its crash
// recovery, where want is a fresh build with exactly the acknowledged
// writes applied.
func (c *checker) agree(ctx context.Context, what string, got, want target, seed int64, points, windows int) {
	c.checked++
	total, err := want.count(ctx)
	if err != nil {
		c.fail("%s: reference count: %v", what, err)
		return
	}
	if n, err := got.count(ctx); err != nil || n != total {
		c.fail("%s: count = %d (%v), reference %d", what, n, err, total)
		return
	}
	rng := rand.New(rand.NewSource(seed))
	var a, b []int64
	for i := 0; i < points+windows; i++ {
		rows := int64(1)
		if i >= points {
			rows = min(rangeRows, total)
		}
		k0 := rng.Int63n(total - rows + 1)
		var errA, errB error
		if rows == 1 {
			a, errA = got.point(ctx, a[:0], k0)
		} else {
			a, errA = got.window(ctx, a[:0], k0, k0+rows)
		}
		b, errB = want.window(ctx, b[:0], k0, k0+rows)
		c.checked++
		if errA != nil || errB != nil || !slices.Equal(a, b) {
			c.fail("%s: ranks [%d,%d) differ from the reference (%v, %v)", what, k0, k0+rows, errA, errB)
		}
	}
}

// freshWithWrites builds the reference for agree: a new engine over a
// regenerated instance with the acknowledged writes applied before the
// first Prepare, so its structure is built from scratch on the final
// data rather than caught up through overlays.
func freshWithWrites(seed int64, n int, acked []write) (target, error) {
	d, err := generate(seed, n)
	if err != nil {
		return nil, err
	}
	eng := rankedaccess.NewEngine(d.in, rankedaccess.EngineOptions{})
	for _, w := range acked {
		if _, err := eng.ApplyBatch([]rankedaccess.Mutation{w.asMutation()}); err != nil {
			return nil, err
		}
	}
	pq, err := eng.Register(queryName, rankedaccess.EngineSpec{Query: queryText, Order: orderText})
	if err != nil {
		return nil, err
	}
	return embedded{pq}, nil
}
