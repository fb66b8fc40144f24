package tupleidx

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"rankedaccess/internal/values"
)

// The contrast benchmark: flat index vs the string-key map it replaced.
// Run with -benchmem; the string side pays one key allocation per probe.

func randTuples(n, arity int, dom int64) [][]values.Value {
	rng := rand.New(rand.NewSource(7))
	out := make([][]values.Value, n)
	for i := range out {
		tu := make([]values.Value, arity)
		for j := range tu {
			tu[j] = rng.Int63n(dom)
		}
		out[i] = tu
	}
	return out
}

func BenchmarkBucketLookup_FlatIndex(b *testing.B) {
	for _, arity := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			tuples := randTuples(1<<16, arity, 1<<18)
			x := New(arity, len(tuples))
			for _, tu := range tuples {
				x.Insert(tu)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Lookup(tuples[i%len(tuples)])
			}
		})
	}
}

func BenchmarkBucketLookup_StringMap(b *testing.B) {
	for _, arity := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			tuples := randTuples(1<<16, arity, 1<<18)
			m := make(map[string]int, len(tuples))
			var buf []byte
			encode := func(tu []values.Value) []byte {
				buf = buf[:0]
				for _, v := range tu {
					var w [8]byte
					binary.BigEndian.PutUint64(w[:], uint64(v))
					buf = append(buf, w[:]...)
				}
				return buf
			}
			for i, tu := range tuples {
				m[string(encode(tu))] = i
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m[string(encode(tuples[i%len(tuples)]))]
			}
		})
	}
}

func BenchmarkInsert_FlatIndex(b *testing.B) {
	tuples := randTuples(1<<16, 2, 1<<18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := New(2, len(tuples))
		for _, tu := range tuples {
			x.Insert(tu)
		}
	}
}

func BenchmarkSortValues_Radix(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	src := make([]values.Value, 1<<16)
	for i := range src {
		src[i] = rng.Int63() - (1 << 62)
	}
	work := make([]values.Value, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		SortRows(work, 1, false)
	}
}
