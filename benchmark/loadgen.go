package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// sample is one answer kept for checking after the phase ends, so the
// reference lookups never sit inside a timed region.
type sample struct {
	k0, k1 int64
	tuples []int64 // flat, width values per rank
}

// opLog is what one client goroutine records during one phase.
type opLog struct {
	lat       []int64 // ns per timed unit (a request, or a batch of probes)
	done      []int64 // completion time of each timed unit, ns since phase start
	late      []int64 // paced mode only: ns each operation started after it was due
	units     int64   // operations completed (probes, range reads, writes)
	rows      int64   // tuples returned
	attempted int64
	failed    int64
	firstErr  error
	samples   []sample
}

// loadClient is one closed-loop (or paced) client goroutine's state.
type loadClient struct {
	id  int
	rng *rand.Rand
	ks  []int64 // ranks of the next batched operation
	buf []int64
	log opLog
}

// operation issues one timed unit of work — a request, or a batch of
// `per` probes — and returns the rows it produced. When keep is set it
// also returns the answer for later checking. The random draws an
// operation needs happen in its prepare step, outside the timed region.
type operation struct {
	per     int // probes per timed unit; latency is reported per probe
	prepare func(c *loadClient)
	run     func(ctx context.Context, c *loadClient, keep bool) (rows int, s sample, err error)
}

// phaseResult is the record of one slice of a phase, or of several
// merged.
type phaseResult struct {
	per        int // probes per timed unit
	elapsed    time.Duration
	logs       []opLog // one per client
	control    []opLog // one per client: the control operations in the windows between the phase's own; nil without a control
	controlPer int     // probes per timed unit of the control
	stalled    float64 // engine.read_stall_s: gaps ≥ 20 ms in the merged completion timeline of all clients, summed
}

// merge adds another slice of the same phase. Completion times are
// relative to their own slice's start and are not carried over; the
// stall they showed is.
func (p *phaseResult) merge(q *phaseResult) {
	if p.logs == nil {
		p.logs, p.control, p.controlPer = make([]opLog, len(q.logs)), make([]opLog, len(q.control)), q.controlPer
	}
	for i := range q.control {
		p.control[i].lat = append(p.control[i].lat, q.control[i].lat...)
	}
	for i := range q.logs {
		l, m := &p.logs[i], &q.logs[i]
		l.lat = append(l.lat, m.lat...)
		l.late = append(l.late, m.late...)
		l.samples = append(l.samples, m.samples...)
		l.units += m.units
		l.rows += m.rows
		l.attempted += m.attempted
		l.failed += m.failed
		if l.firstErr == nil {
			l.firstErr = m.firstErr
		}
	}
	p.elapsed += q.elapsed
	p.stalled += q.stalled
}

// share is the part of the clients' time that went to the phase's own
// operations; the rest went to the control. 1 without a control.
func (p *phaseResult) share() float64 {
	var own, control int64
	for i := range p.logs {
		for _, ns := range p.logs[i].lat {
			own += ns
		}
	}
	for i := range p.control {
		for _, ns := range p.control[i].lat {
			control += ns
		}
	}
	if own == 0 {
		return 1
	}
	return float64(own) / float64(own+control)
}

func (p *phaseResult) units() (n int64) {
	for i := range p.logs {
		n += p.logs[i].units
	}
	return n
}

func (p *phaseResult) rows() (n int64) {
	for i := range p.logs {
		n += p.logs[i].rows
	}
	return n
}

func counts(logs []opLog) (attempted, failed int64) {
	for i := range logs {
		attempted += logs[i].attempted
		failed += logs[i].failed
	}
	return attempted, failed
}

func firstErr(logs []opLog) error {
	for i := range logs {
		if logs[i].firstErr != nil {
			return logs[i].firstErr
		}
	}
	return nil
}

func (p *phaseResult) counts() (attempted, failed int64) { return counts(p.logs) }

func (p *phaseResult) firstErr() error { return firstErr(p.logs) }

// latencies returns every recorded latency per probe, scaled by 1/div
// (1e3 for µs, 1e6 for ms).
func (p *phaseResult) latencies(div float64) []float64 {
	var out []float64
	div *= float64(max(p.per, 1))
	for i := range p.logs {
		for _, ns := range p.logs[i].lat {
			out = append(out, float64(ns)/div)
		}
	}
	return out
}

func (p *phaseResult) samples() []sample {
	var out []sample
	for i := range p.logs {
		out = append(out, p.logs[i].samples...)
	}
	return out
}

// runPhase drives op from n client goroutines for dur. With rate == 0
// each client is a closed loop: its next operation starts when the
// previous one completes. With rate > 0 operations are due at a fixed
// arrival rate shared round-robin among the clients, each is timed from
// when it was due, and how late it started is recorded — the open-loop
// mode used for diagnosis (and by the paced writer), never for the
// closed-loop metrics. Every sampleEvery-th operation of a client is
// kept for checking.
//
// With a control operation (closed loop only), time is divided into
// windows of controlWindow and all clients switch together: op in the
// even windows, the control in the odd ones. Each kind of traffic then
// has the processes to itself, as it would without the other, yet the
// two are never more than a window apart, which is what lets one
// correct the other (control.go).
func runPhase(ctx context.Context, seed int64, n int, dur time.Duration, rate float64, sampleEvery int, op operation, ctl *operation) *phaseResult {
	clients, controls := make([]*loadClient, n), make([]*loadClient, n)
	for i := range clients {
		clients[i] = &loadClient{id: i, rng: rand.New(rand.NewSource(seed + int64(i)*7919))}
		// The control draws from its own source: how many control
		// operations fit between two of op's depends on timing, and op's
		// inputs must not.
		controls[i] = &loadClient{id: i, rng: rand.New(rand.NewSource(seed + int64(i)*7919 + 1))}
	}
	per := max(op.per, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c, cc *loadClient) {
			defer wg.Done()
			l := &c.log
			for i := 0; ; i++ {
				for ctl != nil && ctx.Err() == nil {
					if since := time.Since(start); since >= dur || since/controlWindow%2 == 0 {
						break
					}
					if ctl.prepare != nil {
						ctl.prepare(cc)
					}
					t0 := time.Now()
					_, _, err := ctl.run(ctx, cc, false)
					d := time.Since(t0)
					cc.log.attempted++
					if err != nil {
						cc.log.failed++
						if cc.log.firstErr == nil {
							cc.log.firstErr = err
						}
						continue
					}
					cc.log.lat = append(cc.log.lat, int64(d))
					cc.log.units += int64(max(ctl.per, 1))
				}
				if op.prepare != nil {
					op.prepare(c)
				}
				t0 := time.Now()
				if rate > 0 {
					slot := int64(i*n + c.id)
					due := start.Add(time.Duration(float64(slot) / rate * float64(time.Second)))
					if due.Sub(start) >= dur {
						return
					}
					if wait := due.Sub(t0); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							return
						}
					}
					l.late = append(l.late, int64(max(time.Since(due), 0)))
					t0 = due
				} else if t0.Sub(start) >= dur {
					return
				}
				if ctx.Err() != nil {
					return
				}
				keep := sampleEvery > 0 && i%sampleEvery == 0
				rows, s, err := op.run(ctx, c, keep)
				t1 := time.Now()
				l.attempted += int64(per)
				if err != nil {
					l.failed += int64(per)
					if l.firstErr == nil {
						l.firstErr = err
					}
					continue
				}
				l.lat = append(l.lat, int64(t1.Sub(t0)))
				l.done = append(l.done, int64(t1.Sub(start)))
				l.units += int64(per)
				l.rows += int64(rows)
				if keep {
					l.samples = append(l.samples, s)
				}
			}
		}(c, controls[c.id])
	}
	wg.Wait()
	res := &phaseResult{per: per, elapsed: time.Since(start)}
	if ctl != nil {
		res.controlPer = max(ctl.per, 1)
	}
	done := make([][]int64, n)
	for i, c := range clients {
		res.logs = append(res.logs, c.log)
		done[i] = c.log.done
		if ctl != nil {
			res.control = append(res.control, controls[i].log)
		}
	}
	end := int64(res.elapsed)
	if ctl != nil {
		// The control's windows are no stalls of the product: take them
		// out of the timeline.
		for _, d := range done {
			for j := range d {
				d[j] = withoutControlWindows(d[j])
			}
		}
		end = withoutControlWindows(end)
	}
	res.stalled = stallSeconds(mergeSorted(done...), end, int64(20*time.Millisecond))
	return res
}

// controlWindow is how long the clients stay with one kind of traffic
// before switching to the other: long against a request (the slowest,
// a point read through the cluster, takes about 10 ms), short against
// the seconds over which the host changes pace.
const controlWindow = 100 * time.Millisecond

// withoutControlWindows maps a time since the start of a phase to the
// part of it that lay in op's own (even) windows.
func withoutControlWindows(ns int64) int64 {
	w := int64(controlWindow)
	return ns/(2*w)*w + min(ns%(2*w), w)
}

// width is the number of head columns of the benchmark query.
const width = 3

// errShape reports an answer with the wrong number of values.
func errShape(what string, k int64, got, want int) error {
	return fmt.Errorf("%s(%d): %d values, want %d", what, k, got, want)
}

// pointOp is one point read of a uniform random rank below limit.
func pointOp(t target, limit int64) operation {
	return operation{
		run: func(ctx context.Context, c *loadClient, keep bool) (int, sample, error) {
			k := c.rng.Int63n(limit)
			var err error
			c.buf, err = t.point(ctx, c.buf[:0], k)
			if err != nil {
				return 0, sample{}, err
			}
			if len(c.buf) != width {
				return 0, sample{}, errShape("access", k, len(c.buf), width)
			}
			var s sample
			if keep {
				s = sample{k0: k, k1: k + 1, tuples: append([]int64(nil), c.buf...)}
			}
			return 1, s, nil
		},
	}
}

// batchOp is `per` point reads timed as one unit, for targets whose
// single probe is too short to time on its own. The ranks are drawn in
// the prepare step so the generator's work is not timed.
func batchOp(t target, limit int64, per int) operation {
	return operation{
		per: per,
		prepare: func(c *loadClient) {
			c.ks = c.ks[:0]
			for i := 0; i < per; i++ {
				c.ks = append(c.ks, c.rng.Int63n(limit))
			}
		},
		run: func(ctx context.Context, c *loadClient, keep bool) (int, sample, error) {
			var err error
			for _, k := range c.ks {
				if c.buf, err = t.point(ctx, c.buf[:0], k); err != nil {
					return 0, sample{}, err
				}
				if len(c.buf) != width {
					return 0, sample{}, errShape("access", k, len(c.buf), width)
				}
			}
			var s sample
			if keep { // the last probe of the batch is still in the buffer
				k := c.ks[per-1]
				s = sample{k0: k, k1: k + 1, tuples: append([]int64(nil), c.buf...)}
			}
			return per, s, nil
		},
	}
}

// rangeOp is one read of a window of `rows` rows at a uniform random
// offset, ending below limit.
func rangeOp(t target, limit, rows int64) operation {
	return operation{
		run: func(ctx context.Context, c *loadClient, keep bool) (int, sample, error) {
			k0 := c.rng.Int63n(limit - rows)
			var err error
			c.buf, err = t.window(ctx, c.buf[:0], k0, k0+rows)
			if err != nil {
				return 0, sample{}, err
			}
			if len(c.buf) != int(rows)*width {
				return 0, sample{}, errShape("range", k0, len(c.buf), int(rows)*width)
			}
			var s sample
			if keep {
				s = sample{k0: k0, k1: k0 + rows, tuples: append([]int64(nil), c.buf...)}
			}
			return int(rows), s, nil
		},
	}
}
