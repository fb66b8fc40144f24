// Allocation-regression suite for the hot paths the tuple-index rework
// targets: steady-state ranked access must not allocate at all, and the
// batched paths must amortize their bookkeeping across the window. Run
// the benchmarks with -benchmem and compare against the reference
// numbers in README.md ("Performance architecture").
package rankedaccess

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/order"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/trace"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

func buildTwoPathLex(tb testing.TB, n int) *access.Lex {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	q, in := workload.TwoPath(rng, n, n/8, 0.3)
	l, err := order.ParseLex(q, "x, y, z")
	if err != nil {
		tb.Fatal(err)
	}
	la, err := access.BuildLex(q, in, l)
	if err != nil {
		tb.Fatal(err)
	}
	if la.Total() == 0 {
		tb.Fatal("empty join")
	}
	return la
}

// TestSteadyStateAccessZeroAllocs is the acceptance guard for the
// allocation-free access path: probing a built structure through a
// reused buffer must perform exactly zero allocations per access.
func TestSteadyStateAccessZeroAllocs(t *testing.T) {
	la := buildTwoPathLex(t, 1<<13)
	buf := la.NewBuf()
	total := la.Total()
	k := int64(0)
	step := total/97 + 1
	if n := testing.AllocsPerRun(500, func() {
		if _, err := la.AccessInto(buf, k); err != nil {
			t.Fatal(err)
		}
		k = (k + step) % total
	}); n != 0 {
		t.Fatalf("steady-state AccessInto allocates %v times per access, want 0", n)
	}
}

// TestOverlaidEpochZeroAllocs extends the guard to epochs that carry
// edits: after a write the handle serves its structure through a delta
// overlay, and a probe of it — by AppendTuple or by a cursor — must
// still allocate nothing. It allocated one answer per probe while the
// overlay reached its layered base through the copying Lex.Access.
func TestOverlaidEpochZeroAllocs(t *testing.T) {
	if shardtest.RaceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	_, in := workload.TwoPath(rng, 1<<12, 1<<9, 0.3)
	e := engine.New(in, engine.Options{})
	pq, err := e.Register("guard", engine.Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	// Join keys outside the domain: exactly one new answer, one edit.
	if err := e.AddRows("R", [][]values.Value{{900001, 777777}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("S", [][]values.Value{{777777, 1}}); err != nil {
		t.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if h.DeltaEdits() == 0 {
		t.Fatal("the write did not publish an overlay epoch")
	}
	total := h.Total()
	cur := h.Cursor()
	dst := make([]values.Value, 0, 8)
	k := int64(0)
	step := total/89 + 1
	if n := testing.AllocsPerRun(500, func() {
		if dst, err = h.AppendTuple(dst[:0], k); err != nil {
			t.Fatal(err)
		}
		if _, err = cur.Seek(k, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if dst, _, err = cur.Next(dst[:0]); err != nil {
			t.Fatal(err)
		}
		k = (k + step) % total
	}); n != 0 {
		t.Fatalf("overlaid AppendTuple + Cursor.Next allocate %v times per pair, want 0", n)
	}
}

// TestAppendRangeAmortizedAllocs checks the batched path: a whole range
// through a pre-grown destination buffer must not allocate per answer.
func TestAppendRangeAmortizedAllocs(t *testing.T) {
	la := buildTwoPathLex(t, 1<<13)
	total := la.Total()
	width := int64(3) // head is (x, y, z)
	win := int64(64)
	if win > total {
		win = total
	}
	dst := make([]values.Value, 0, win*width)
	k := int64(0)
	// The pooled probe buffer may be re-created if a GC empties the
	// pool mid-measurement, so allow strictly-sub-per-answer noise
	// rather than demanding exact zero.
	perRun := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = la.AppendRange(dst[:0], k, k+win)
		if err != nil {
			t.Fatal(err)
		}
		k = (k + win) % (total - win + 1)
	})
	if perRun >= float64(win)/4 {
		t.Fatalf("AppendRange allocates %v times per %d-answer window", perRun, win)
	}
}

// TestTracingDisabledZeroAllocs is the acceptance guard for the
// tracing integration: with tracing disabled (nil *trace.Tracer — the
// default configuration), the context-threaded serving probe path must
// allocate exactly as much as before tracing existed, i.e. zero. This
// pins both halves of the contract: Tracer.Start/Span.End on a nil
// tracer are free, and the ctx plumbing through the engine's *Ctx
// variants adds no hidden boxing.
func TestTracingDisabledZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, in := workload.TwoPath(rng, 1<<13, 1<<10, 0.3)
	e := engine.New(in, engine.Options{})
	pq, err := e.Register("guard", engine.Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	total := h.Total()
	if total == 0 {
		t.Fatal("empty join")
	}
	var tracer *trace.Tracer
	dst := make([]values.Value, 0, 8)
	bg := context.Background()
	k := int64(0)
	step := total/89 + 1
	if n := testing.AllocsPerRun(500, func() {
		ctx, sp := tracer.Start(bg, "bench.access", trace.KindServer)
		h, err := pq.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		dst, err = h.AppendTupleCtx(ctx, dst[:0], k)
		if err != nil {
			t.Fatal(err)
		}
		sp.End()
		k = (k + step) % total
	}); n != 0 {
		t.Fatalf("tracing-disabled probe path allocates %v times per request, want 0", n)
	}
}

// --- Benchmarks: single access, buffered access, batched access ---

func BenchmarkAccess_Fresh(b *testing.B) {
	la := buildTwoPathLex(b, 1<<14)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.Access(rng.Int63n(la.Total())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccess_Buffered(b *testing.B) {
	la := buildTwoPathLex(b, 1<<14)
	rng := rand.New(rand.NewSource(2))
	buf := la.NewBuf()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.AccessInto(buf, rng.Int63n(la.Total())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccess_AppendTuple(b *testing.B) {
	la := buildTwoPathLex(b, 1<<14)
	rng := rand.New(rand.NewSource(2))
	dst := make([]values.Value, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = la.AppendTuple(dst[:0], rng.Int63n(la.Total()))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessRange_Batched measures per-answer cost of contiguous
// windows against the per-call cost of BenchmarkAccess_Buffered.
func BenchmarkAccessRange_Batched(b *testing.B) {
	for _, win := range []int64{16, 256} {
		b.Run(fmt.Sprintf("window=%d", win), func(b *testing.B) {
			la := buildTwoPathLex(b, 1<<14)
			total := la.Total()
			if win > total {
				b.Skip("window wider than answer set")
			}
			dst := make([]values.Value, 0, win*3)
			k := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = la.AppendRange(dst[:0], k, k+win)
				if err != nil {
					b.Fatal(err)
				}
				k = (k + win) % (total - win + 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(win), "ns/answer")
		})
	}
}

// BenchmarkEngineAccessRange exercises the whole serving path: cache
// hit, pooled probe buffer, flat result buffer.
func BenchmarkEngineAccessRange(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	_, in := workload.TwoPath(rng, 1<<14, 1<<11, 0.3)
	e := engine.New(in, engine.Options{})
	spec := engine.Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	h, err := e.Prepare(spec)
	if err != nil {
		b.Fatal(err)
	}
	total := h.Total()
	const win = 64
	dst := make([]values.Value, 0, win*3)
	k := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, dst, err = e.AccessRange(spec, dst[:0], k, k+win)
		if err != nil {
			b.Fatal(err)
		}
		k = (k + win) % (total - win + 1)
	}
}
