package database_test

import (
	"bytes"
	"math/rand"
	"testing"

	"rankedaccess/internal/database"
	"rankedaccess/internal/workload"
)

// BenchmarkReadRelation parses relation R of the benchmark's workload
// (TwoPath, n = 262 144, seed 1) from its TSV form, as serve -data
// does; MB/s is the parse rate.
func BenchmarkReadRelation(b *testing.B) {
	const n = 1 << 18
	_, in := workload.TwoPath(rand.New(rand.NewSource(1)), n, n/4, 0.4)
	var tsv bytes.Buffer
	if err := in.WriteRelation("R", &tsv); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tsv.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := database.NewInstance().ReadRelation("R", bytes.NewReader(tsv.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
