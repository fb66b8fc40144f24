package access

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
	"testing"

	"rankedaccess/internal/order"
)

// Kinds of range FuzzGuidedSearch builds, chosen by kind%3; the other
// bits of kind pick a direction, an inner layer whose weights are all 1,
// and how many tuples an earlier bucket holds.
const (
	fuzzStarts = iota // weights: a bucket's starts, searched by pick
	fuzzVals          // sorted distinct values, searched by seek
	fuzzRanks         // an overlay's rising merged ranks, by locate
)

// FuzzGuidedSearch holds the descents' guided search to sort.Search on
// every kind of range it runs over: a bucket's starts (through pick,
// whose leaf buckets go by index), a bucket's values in either
// direction (through seek) and an overlay's merged ranks (through
// locate). data is a list of uvarints, read per kind as weights − 1, as
// a first value's offset from math.MinInt64 followed by gaps − 1, or as
// a first rank followed by gaps.
func FuzzGuidedSearch(f *testing.F) {
	seed := func(kind uint8, entries []uint64, factor, k uint64, target int64) {
		var data []byte
		for _, e := range entries {
			data = binary.AppendUvarint(data, e)
		}
		f.Add(kind, data, factor, k, target)
	}
	repeat := func(e uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = e
		}
		return out
	}
	// Buckets of 1, 8 and 9 entries: the scan, and the first gallop.
	seed(fuzzStarts, []uint64{4}, 3, 7, 0)
	seed(fuzzStarts|0x80, repeat(2, 8), 5, 100, 0)
	seed(fuzzStarts|0x08, repeat(2, 9), 5, 100, 0)
	seed(fuzzVals, repeat(0, 9), 0, 0, math.MinInt64+4)
	seed(fuzzRanks, []uint64{0, 1, 1, 0, 2, 0, 0, 3}, 0, 4, 0)
	seed(fuzzRanks, []uint64{0, 1, 1, 0, 2, 0, 0, 3, 1}, 0, 5, 0)
	// One tuple holding almost all the weight, first and last.
	seed(fuzzStarts, append([]uint64{1 << 40}, repeat(0, 30)...), 1, 1<<39, 0)
	seed(fuzzStarts|0x10, append(repeat(0, 30), 1<<40), 7, 1<<41, 0)
	// Geometric weights 1, 2, 4, …, 2^39.
	geo := make([]uint64, 40)
	for i := range geo {
		geo[i] = 1<<i - 1
	}
	seed(fuzzStarts, geo, 1, 12345, 0)
	// A leaf's weights, all 1, and an inner bucket's weights, all 1.
	seed(fuzzStarts, repeat(0, 100), 9, 500, 0)
	seed(fuzzStarts|0x80, repeat(0, 100), 9, 500, 0)
	// Values from math.MinInt64 up, then a jump to math.MaxInt64: a
	// guess far from the target must clamp, not overflow.
	extremes := append(repeat(0, 11), math.MaxUint64-12)
	for _, target := range []int64{math.MinInt64, math.MinInt64 + 5, 0, math.MaxInt64} {
		seed(fuzzVals, extremes, 0, 0, target)
		seed(fuzzVals|0x40, extremes, 0, 0, target)
	}
	// Small values, then a jump to near math.MaxInt64.
	jump := append([]uint64{1 << 63}, repeat(0, 20)...)
	jump = append(jump, 1<<62)
	seed(fuzzVals, jump, 0, 0, 7)
	seed(fuzzVals|0x48, jump, 0, 0, 7)
	// Merged ranks with runs of equal ranks, past-the-end ks and a zero
	// total.
	seed(fuzzRanks, []uint64{3, 0, 0, 4, 1, 0, 9, 0, 0, 0, 2, 5}, 40, 17, 0)
	seed(fuzzRanks, []uint64{3, 0, 0, 4, 1, 0, 9, 0, 0, 0, 2, 5}, 0, 50, 0)

	f.Fuzz(func(t *testing.T, kind uint8, data []byte, factor, k uint64, target int64) {
		var entries []uint64
		for len(data) > 0 && len(entries) < 1<<12 {
			e, n := binary.Uvarint(data)
			if n <= 0 {
				break
			}
			entries, data = append(entries, e), data[n:]
		}
		if len(entries) == 0 {
			return
		}
		// Bucket 0 holds pad tuples; the searched bucket 1 follows.
		pad := 1 + int(kind>>3)%4
		switch kind % 3 {
		case fuzzStarts:
			starts := make([]int64, pad, pad+len(entries))
			for i := range starts {
				starts[i] = int64(i)
			}
			var bw int64
			leaf := kind&0x80 == 0
			for _, e := range entries {
				if e >= 1<<62 || bw > 1<<62-int64(e)-1 {
					break
				}
				starts = append(starts, bw)
				bw += int64(e) + 1
				leaf = leaf && e == 0
			}
			if bw == 0 {
				return
			}
			ly := &layer{starts: starts, bucketStart: []int{0, pad, len(starts)}, bucketWeight: []int64{int64(pad), bw}}
			if !leaf {
				ly.children = []int{1}
			}
			fac := 1 + int64(factor%uint64(math.MaxInt64/bw))
			kk := int64(k % uint64(bw*fac))
			lo, hi := pad, len(starts)
			want := lo + sort.Search(hi-lo, func(j int) bool { return starts[lo+j]*fac > kk }) - 1
			got, rest := ly.pick(1, fac, kk)
			if got != want || rest != kk-starts[want]*fac {
				t.Fatalf("pick(k=%d, factor=%d) over %d starts (leaf %t) = %d rest %d, sort.Search %d rest %d",
					kk, fac, hi-lo, leaf, got, rest, want, kk-starts[want]*fac)
			}
		case fuzzVals:
			vals := make([]int64, 0, len(entries))
			off := entries[0]
			for i, e := range entries {
				if i > 0 {
					var carry uint64
					if off, carry = bits.Add64(off, e, 1); carry != 0 {
						break
					}
				}
				vals = append(vals, int64(off^1<<63))
			}
			dir := order.Asc
			if kind&0x40 != 0 {
				dir = order.Desc
				for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
					vals[i], vals[j] = vals[j], vals[i]
				}
			}
			all := append(make([]int64, pad), vals...)
			ly := &layer{dir: dir, vals: all}
			lo, hi := pad, len(all)
			want := lo + sort.Search(hi-lo, func(j int) bool {
				if dir == order.Desc {
					return all[lo+j] <= target
				}
				return all[lo+j] >= target
			})
			if got := ly.seek(lo, hi, target); got != want {
				t.Fatalf("seek(%d) over %v (%v) = %d, sort.Search %d", target, vals, dir, got, want)
			}
		case fuzzRanks:
			ranks := make([]int64, 0, len(entries))
			var r uint64
			for i, e := range entries {
				if e >= 1<<62 || r > 1<<62-e {
					break
				}
				if i == 0 {
					r = e
				} else {
					r += e
				}
				ranks = append(ranks, int64(r))
			}
			o := &Overlay{events: make([]ovEvent, len(ranks)), ranks: ranks, total: int64(factor >> 1)}
			kk := int64(k % (r + 3))
			want := sort.Search(len(ranks), func(i int) bool { return ranks[i] > kk })
			if got := o.locate(kk); got != want {
				t.Fatalf("locate(%d) over %v (total %d) = %d, sort.Search %d", kk, ranks, o.total, got, want)
			}
		}
	})
}
