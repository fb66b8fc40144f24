package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// sliceStat is what one slice measured of one kind of traffic, the
// product's or the control's: every client's operations for a fraction
// of a second.
type sliceStat struct {
	unitsPerS float64 // per second of the time the clients gave this kind of traffic
	rowsPerS  float64
	p50       float64 // per probe, in the unit the caller asked for
}

func statOf(logs []opLog, per int, seconds, div float64) sliceStat {
	var lat []float64
	var units, rows int64
	for i := range logs {
		for _, ns := range logs[i].lat {
			lat = append(lat, float64(ns)/(div*float64(per)))
		}
		units += logs[i].units
		rows += logs[i].rows
	}
	sort.Float64s(lat)
	return sliceStat{float64(units) / seconds, float64(rows) / seconds, quantile(lat, 0.5)}
}

// stats summarises one slice; div scales nanoseconds to the reported
// unit (1e3 for µs).
func (p *phaseResult) stats(div float64) (product, control sliceStat) {
	share := p.share()
	product = statOf(p.logs, p.per, p.elapsed.Seconds()*share, div)
	if p.control != nil {
		control = statOf(p.control, p.controlPer, p.elapsed.Seconds()*(1-share), div)
	}
	return product, control
}

// steady is one phase of one round, summarised slice by slice. The
// phase is cut into short slices, each with its own throughput and
// median latency, and what is reported is the median over the slices:
// a burst of outside noise spoils a slice, not the number. Against a
// process every slice also carries control traffic (see control.go),
// and the slice's throughput and latency are first scaled by the
// nominal pace of the control over its pace in that slice. The tail is
// taken over all slices together, because one slice rarely has the
// samples a high percentile needs, and scaled by the phase's median
// latency factor.
type steady struct {
	unitsPerS, rowsPerS float64
	p50, tail           float64
	tailQ               float64   // the quantile the tail is, by the ten-samples-beyond rule
	raw                 sliceStat // the medians as measured, before the control's correction
	pace                float64   // control throughput over its nominal, median over slices; 1 without a control
	latFactor           float64   // nominal control latency over the measured one, median over slices
	n                   int       // timed units in the product slices
	slices              int

	product, control []sliceStat // per slice, for -v
}

// note renders the sample counts and the correction for the report.
func (s steady) note() string {
	out := fmt.Sprintf("median of %d slices, n=%d, tail=p%.4g", s.slices, s.n, s.tailQ*100)
	if len(s.control) > 0 {
		out += fmt.Sprintf(", host pace %.3f (as measured: %.6g/s, p50 %.6g)", s.pace, s.raw.unitsPerS, s.raw.p50)
	}
	return out
}

// A slice is a second or more, five windows of each kind of traffic,
// and a phase has as few as one and at most 16: the control takes care
// of the host's changes of pace, and the slowest operations need the
// second for their median. Without a control (the paced mode) a slice
// aims for sliceLength and a phase has at least 4.
const sliceLength = 500 * time.Millisecond

// runSliced drives one phase of one round — op from n closed-loop
// clients, with the control between op's requests when ctl is set — in
// slices that add up to dur. It returns the slices merged, for counts,
// samples and tails, and their summary.
func runSliced(ctx context.Context, seed int64, n int, dur time.Duration, rate float64, sampleEvery int, op operation, ctl *operation, nominal sliceStat, div float64) (*phaseResult, steady, error) {
	k := max(4, min(16, int(dur/sliceLength)))
	if ctl != nil {
		k = max(1, min(16, int(dur/(10*controlWindow))))
	}
	out := steady{slices: k}
	merged := &phaseResult{per: max(op.per, 1)}
	for i := 0; i < k; i++ {
		pr := runPhase(ctx, seed+int64(i)*31337, n, dur/time.Duration(k), rate, sampleEvery, op, ctl)
		if ctl != nil {
			if a, f := counts(pr.control); f > 0 || a == 0 {
				return nil, out, fmt.Errorf("control: %d of %d operations failed, first error: %v", f, a, firstErr(pr.control))
			}
		}
		product, control := pr.stats(div)
		out.product = append(out.product, product)
		if ctl != nil {
			out.control = append(out.control, control)
		}
		merged.merge(pr)
	}

	out.correct(nominal)
	whole := summarize(merged.latencies(div))
	out.tail, out.tailQ, out.n = whole.Tail*out.latFactor, whole.TailQ, whole.N
	return merged, out, nil
}

// correct fills in the summary from the slices: each product slice
// scaled by the control's nominal pace over its pace in that slice,
// then the median over slices.
func (s *steady) correct(nominal sliceStat) {
	var units, rows, p50s, rawUnits, rawRows, rawP50, paces, latFactors []float64
	for i, p := range s.product {
		fu, fl := 1.0, 1.0
		if len(s.control) > 0 {
			fu = nominal.unitsPerS / s.control[i].unitsPerS
			fl = nominal.p50 / s.control[i].p50
		}
		paces, latFactors = append(paces, 1/fu), append(latFactors, fl)
		rawUnits, rawRows = append(rawUnits, p.unitsPerS), append(rawRows, p.rowsPerS)
		units, rows = append(units, p.unitsPerS*fu), append(rows, p.rowsPerS*fu)
		if p.p50 > 0 { // a slice with no completions has a throughput (0) but no latency
			rawP50 = append(rawP50, p.p50)
			p50s = append(p50s, p.p50*fl)
		}
	}
	s.unitsPerS, s.rowsPerS, s.p50 = median(units), median(rows), median(p50s)
	s.raw = sliceStat{median(rawUnits), median(rawRows), median(rawP50)}
	s.pace, s.latFactor = median(paces), median(latFactors)
}
