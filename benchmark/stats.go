package main

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rankedaccess/internal/metrics"
)

// quantile returns the q-quantile of sorted (ascending) values by
// linear interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailQuantile is the reporting rule for latency tails: the highest
// percentile with at least ten samples beyond it, capped at p99. With
// fewer than 20 samples no tail is supported and the median is
// returned.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// timing summarises one latency sample set by the reporting rule.
type timing struct {
	N         int
	P50, Tail float64 // in the unit of the input
	TailQ     float64 // which quantile Tail is (0.99 when n ≥ 1000)
}

// summarize sorts vals in place and applies the reporting rule.
func summarize(vals []float64) timing {
	sort.Float64s(vals)
	q := tailQuantile(len(vals))
	return timing{N: len(vals), P50: quantile(vals, 0.5), Tail: quantile(vals, q), TailQ: q}
}

// median returns the median of vals without disturbing their order.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean of vals; 0 for none.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// betterHalf is the mean of the better half of vals, the middle one
// included when their number is odd: the highest when higher is better,
// the lowest otherwise.
func betterHalf(vals []float64, higher bool) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if higher {
		slices.Reverse(s)
	}
	return mean(s[:(len(s)+1)/2])
}

// spread is the run-to-run steadiness measure BENCHMARK.json's bounds
// are set from: the distance between the first and third quartile of
// the values as a share of their median, with the quartiles computed
// the way Python's statistics.quantiles(values, n=4) computes them
// (the "exclusive" method), because that is what the driver runs.
func spread(vals []float64) (q1, med, q3, rel float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0], 0
		}
		return 0, 0, 0, 0
	}
	cut := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = max(1, min(j, n-1))
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	q1, med, q3 = cut(1), cut(2), cut(3)
	if med != 0 {
		rel = (q3 - q1) / math.Abs(med)
	}
	return q1, med, q3, rel
}

// stallSeconds sums the gaps of at least minGap between consecutive
// completions in a merged timeline (nanoseconds since phase start,
// ascending), counting the lead-in from 0 and the tail to end as gaps
// too. It is what closed-loop percentiles hide: a reader blocked for a
// second issues nothing, so it contributes one slow sample, not the
// thousands it would have completed.
func stallSeconds(done []int64, end, minGap int64) float64 {
	var total, prev int64
	for _, t := range done {
		if t-prev >= minGap {
			total += t - prev
		}
		prev = t
	}
	if end-prev >= minGap {
		total += end - prev
	}
	return float64(total) / 1e9
}

// mergeSorted merges per-client completion timelines, each ascending.
func mergeSorted(lists ...[]int64) []int64 {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]int64, 0, n)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scrape is one parsed /metrics document.
type scrape []metrics.Sample

// sum adds up every series of the family whose labels include all of
// the given name/value pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
	for _, m := range s {
		if m.Name == name && hasLabels(m, labels) {
			total += m.Value
		}
	}
	return total
}

// has reports whether any series of a family with this name prefix is
// present.
func (s scrape) has(prefix string) bool {
	for _, m := range s {
		if strings.HasPrefix(m.Name, prefix) {
			return true
		}
	}
	return false
}

func hasLabels(m metrics.Sample, labels []string) bool {
	for i := 0; i+1 < len(labels); i += 2 {
		if m.Labels[labels[i]] != labels[i+1] {
			return false
		}
	}
	return true
}

// bucket is one cumulative histogram bucket: count of observations ≤ le.
type bucket struct {
	le    float64
	count float64
}

// histDelta returns the cumulative buckets of a histogram family over
// the window between two scrapes, summed across every series matching
// the labels (e.g. across peers), ascending by bound with +Inf last.
func histDelta(before, after scrape, name string, labels ...string) []bucket {
	acc := map[float64]float64{}
	add := func(s scrape, sign float64) {
		for _, m := range s {
			if m.Name != name+"_bucket" || !hasLabels(m, labels) {
				continue
			}
			le, err := strconv.ParseFloat(m.Labels["le"], 64)
			if err != nil {
				continue
			}
			acc[le] += sign * m.Value
		}
	}
	add(after, 1)
	add(before, -1)
	out := make([]bucket, 0, len(acc))
	for le, c := range acc {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// histQuantile interpolates the q-quantile from cumulative buckets the
// way Prometheus's histogram_quantile does: linearly inside the bucket
// holding the target rank, the highest finite bound when the rank
// lands in +Inf, 0 when empty.
func histQuantile(b []bucket, q float64) float64 {
	if len(b) == 0 || b[len(b)-1].count <= 0 {
		return 0
	}
	rank := q * b[len(b)-1].count
	for i, bk := range b {
		if bk.count < rank {
			continue
		}
		if math.IsInf(bk.le, 1) {
			if i == 0 {
				return 0
			}
			return b[i-1].le
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = b[i-1].le, b[i-1].count
		}
		if bk.count == below {
			return bk.le
		}
		return lo + (bk.le-lo)*(rank-below)/(bk.count-below)
	}
	return b[len(b)-1].le
}
