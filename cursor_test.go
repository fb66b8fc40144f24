// Facade-level coverage for the prepared-query registry and cursors:
// sentinel errors hold across layers via errors.Is, and steady-state
// cursor probing is allocation-free (the acceptance bar for
// BenchmarkCursorNext).
package rankedaccess

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"rankedaccess/internal/workload"
)

// buildStreamEngine registers a two-path query on a generated instance.
func buildStreamEngine(tb testing.TB, n int) (*Engine, *PreparedQuery) {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	_, in := workload.TwoPath(rng, n, n/8, 0.3)
	e := NewEngine(in, EngineOptions{})
	pq, err := e.Register("bench", EngineSpec{
		Query: "Q(x, y, z) :- R(x, y), S(y, z)",
		Order: "x, y, z",
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e, pq
}

func TestFacadeSentinelsAcrossLayers(t *testing.T) {
	e, pq := buildStreamEngine(t, 1<<10)

	if _, err := e.Prepared("ghost"); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("Prepared(ghost) = %v, want ErrNotPrepared", err)
	}

	cur, err := pq.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Seek(cur.Total()+1, io.SeekStart); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("seek past end = %v, want ErrOutOfRange", err)
	}
	if _, err := cur.Handle().Access(cur.Total()); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("access past end = %v, want ErrOutOfRange", err)
	}

	// The intractable sentinel surfaces from the raw builder...
	q := MustParseQuery("Q(x, y, z) :- R(x, y), S(y, z)")
	l, err := ParseLex(q, "x, z, y") // canonical intractable order
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirectAccess(q, NewInstance(), l, nil); !errors.Is(err, ErrIntractable) {
		t.Fatalf("intractable build = %v, want ErrIntractable", err)
	}

	// ...and mutation does NOT invalidate prepared cursors: they are
	// pinned to their epoch and keep streaming across writes.
	if err := e.AddRows("R", [][]Value{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(nil); !ok || err != nil {
		t.Fatalf("post-mutation Next = (%v, %v), want a live cursor", ok, err)
	}
}

// TestCursorNextZeroAllocs is the acceptance guard: a steady-state
// cursor Next through a reused destination buffer must not allocate —
// it steps through the cursor's own probe buffer. (A coordinator
// handle's window half is internal/engine's
// TestRemoteCursorNextZeroAllocs.)
func TestCursorNextZeroAllocs(t *testing.T) {
	_, pq := buildStreamEngine(t, 1<<12)
	t.Run("unsharded", func(t *testing.T) {
		cur, err := pq.Cursor()
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]Value, 0, 8)
		if n := testing.AllocsPerRun(2000, func() {
			var ok bool
			dst, ok, err = cur.Next(dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if _, err := cur.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
			}
		}); n != 0 {
			t.Fatalf("steady-state Cursor.Next allocates %v times per probe, want 0", n)
		}
	})
}

// BenchmarkCursorNext measures the prepared-cursor single-step path:
// registry-resident handle, reused destination buffer, one successor
// step per op. TestCursorNextZeroAllocs requires 0 allocs/op.
func BenchmarkCursorNext(b *testing.B) {
	_, pq := buildStreamEngine(b, 1<<14)
	cur, err := pq.Cursor()
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]Value, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		dst, ok, err = cur.Next(dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			if _, err := cur.Seek(0, io.SeekStart); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCursorNextN measures the batched cursor path (amortized
// range access), for contrast with the single-step loop.
func BenchmarkCursorNextN(b *testing.B) {
	const batch = 256
	_, pq := buildStreamEngine(b, 1<<14)
	cur, err := pq.Cursor()
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]Value, 0, batch*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		dst, n, err = cur.NextN(dst[:0], batch)
		if err != nil {
			b.Fatal(err)
		}
		if n < batch {
			if _, err := cur.Seek(0, io.SeekStart); err != nil {
				b.Fatal(err)
			}
		}
	}
}
