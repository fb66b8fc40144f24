package engine

import (
	"context"
	"errors"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/values"
)

// shardCases cover every structure mode the sharded planner serves:
// layered-lex, sum, materialized (intractable order), and the
// FD-extended layered path (extend globally, shard the extension). The
// FD case gets its own engine whose S relation actually satisfies
// y → z.
func shardCases() []struct {
	spec Spec
	eng  *Engine
} {
	e, eFD := shardEngines()
	return []struct {
		spec Spec
		eng  *Engine
	}{
		{Spec{Query: twoPath, Order: "x, y, z"}, e},
		{Spec{Query: twoPath, Order: "y desc, x"}, e},
		{Spec{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}}, e},
		{Spec{Query: twoPath, Order: "x, z, y"}, e},
		{Spec{Query: twoPath, Order: "x, z, y", FDs: []string{"S: y -> z"}}, eFD},
	}
}

// shardEngines returns an engine over a random two-path instance and
// one whose S relation satisfies the FD y → z.
func shardEngines() (e, eFD *Engine) {
	e = New(randomInstance(600, 48, 17), Options{})
	fdIn := randomInstance(600, 48, 19)
	fdIn.SetRelation("S", fdIn.Relation("S").Clone())
	s := fdIn.Relation("S")
	for i := 0; i < s.Len(); i++ {
		t := s.Tuple(i)
		t[1] = (t[0]*7 + 3) % 48 // z is a function of y
	}
	return e, New(fdIn, Options{})
}

// TestShardedMatchesSingle cross-checks the sharded engine against the
// single-shard engine on randomized instances: identical answers for
// ranked access, ranges, totals, and inverted access, for P ∈ {2, 3, 8}.
func TestShardedMatchesSingle(t *testing.T) {
	for _, tc := range shardCases() {
		base, e := tc.spec, tc.eng
		ref, err := e.Prepare(base)
		if err != nil {
			t.Fatalf("%+v: %v", base, err)
		}
		total := ref.Total()
		if total < 8 {
			t.Fatalf("%+v: too few answers (%d)", base, total)
		}
		for _, p := range []int{2, 3, 8} {
			s := base
			s.Shards = p
			h, err := e.Prepare(s)
			if err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			if h.Plan.Shards != p || h.Plan.ShardBy == "" {
				t.Fatalf("%+v: plan %+v, want %d shards with a partition variable", s, h.Plan, p)
			}
			if h.Plan.Mode != ref.Plan.Mode {
				t.Fatalf("%+v: sharded mode %s, single mode %s", s, h.Plan.Mode, ref.Plan.Mode)
			}
			if h.Total() != total {
				t.Fatalf("%+v: total %d, want %d", s, h.Total(), total)
			}
			var want, got []values.Value
			for k := int64(0); k < total; k++ {
				want, err = ref.AppendTuple(want[:0], k)
				if err != nil {
					t.Fatal(err)
				}
				got, err = h.AppendTuple(got[:0], k)
				if err != nil {
					t.Fatalf("%+v: AppendTuple(%d): %v", s, k, err)
				}
				if len(want) != len(got) {
					t.Fatalf("%+v k=%d: widths differ", s, k)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%+v k=%d: %v vs %v", s, k, got, want)
					}
				}
				wa, err1 := ref.Access(k)
				ga, err2 := h.Access(k)
				if err1 != nil || err2 != nil {
					t.Fatalf("%+v k=%d: %v, %v", s, k, err1, err2)
				}
				if len(wa) != len(ga) {
					t.Fatalf("%+v k=%d: answer shapes differ (%d vs %d)", s, k, len(wa), len(ga))
				}
				for i := range wa {
					if wa[i] != ga[i] {
						t.Fatalf("%+v k=%d: answers %v vs %v", s, k, ga, wa)
					}
				}
				wantInv, errW := ref.Inverted(wa)
				gotInv, errG := h.Inverted(ga)
				if errors.Is(errW, ErrNoInverted) {
					if !errors.Is(errG, ErrNoInverted) {
						t.Fatalf("%+v: single has no inverse but sharded does (%v)", s, errG)
					}
				} else if errW != nil || errG != nil || wantInv != gotInv {
					t.Fatalf("%+v k=%d: inverted (%d,%v) vs (%d,%v)", s, k, gotInv, errG, wantInv, errW)
				}
			}
			// Full range scans agree.
			_, wantFlat, err := e.AccessRange(base, nil, 0, total)
			if err != nil {
				t.Fatal(err)
			}
			_, gotFlat, err := e.AccessRange(s, nil, 0, total)
			if err != nil {
				t.Fatalf("%+v: AccessRange: %v", s, err)
			}
			if len(wantFlat) != len(gotFlat) {
				t.Fatalf("%+v: range lengths %d vs %d", s, len(gotFlat), len(wantFlat))
			}
			for i := range wantFlat {
				if wantFlat[i] != gotFlat[i] {
					t.Fatalf("%+v: range mismatch at %d", s, i)
				}
			}
			// Out-of-bound probes fail identically.
			if _, err := h.Access(total); !errors.Is(err, access.ErrOutOfBound) {
				t.Fatalf("%+v: Access(total) = %v, want ErrOutOfBound", s, err)
			}
			if _, err := h.Access(-1); !errors.Is(err, access.ErrOutOfBound) {
				t.Fatalf("%+v: Access(-1) = %v, want ErrOutOfBound", s, err)
			}
		}
	}
}

// TestShardedFallback: queries that cannot be partitioned still answer
// correctly through the single structure, and the plan says why.
func TestShardedFallback(t *testing.T) {
	in := smallInstance()
	in.AddRow("R", 5, 3) // join R with itself through the second column
	e := New(in, Options{})
	selfjoin := "Q(x, y, z) :- R(x, y), R(y, z)"
	single, err := e.Prepare(Spec{Query: selfjoin, Order: ""})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Prepare(Spec{Query: selfjoin, Order: "", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.Plan.Shards != 0 || h.Plan.ShardNote == "" {
		t.Fatalf("plan = %+v, want unsharded with a fallback note", h.Plan)
	}
	if h.Total() != single.Total() {
		t.Fatalf("fallback total %d, want %d", h.Total(), single.Total())
	}
	for k := int64(0); k < single.Total(); k++ {
		want, _ := single.Access(k)
		got, err := h.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("k=%d: %v vs %v", k, got, want)
			}
		}
	}
}

// TestShardSpecIdentity: the shard count and partition variable are
// part of the accessor's cache identity.
func TestShardSpecIdentity(t *testing.T) {
	e := New(randomInstance(200, 32, 5), Options{})
	base := Spec{Query: twoPath, Order: "x, y, z"}
	h1, err := e.Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	s2 := base
	s2.Shards = 2
	h2, err := e.Prepare(s2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("sharded and unsharded specs shared a cache entry")
	}
	s2b := base
	s2b.Shards = 2
	h2b, err := e.Prepare(s2b)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h2b {
		t.Fatal("identical sharded specs did not share a cache entry")
	}
	sBy := s2
	sBy.ShardBy = "x"
	hBy, err := e.Prepare(sBy)
	if err != nil {
		t.Fatal(err)
	}
	if hBy == h2 {
		t.Fatal("different partition variables shared a cache entry")
	}
	// Shards 0 and 1 are the same (unsharded) identity.
	s1 := base
	s1.Shards = 1
	h1b, err := e.Prepare(s1)
	if err != nil {
		t.Fatal(err)
	}
	if h1b != h1 {
		t.Fatal("Shards: 1 must share the unsharded cache entry")
	}
}

func TestShardByValidation(t *testing.T) {
	e := New(smallInstance(), Options{})
	if _, err := e.Prepare(Spec{Query: twoPath, Order: "x, y, z", Shards: 2, ShardBy: "w"}); err == nil {
		t.Fatal("unknown shard_by accepted")
	}
	// Existential variables cannot partition answers.
	if _, err := e.Prepare(Spec{Query: "Q(x, z) :- R(x, y), S(y, z)", Order: "", Shards: 2, ShardBy: "y"}); err == nil {
		t.Fatal("existential shard_by accepted")
	}
	// ShardBy without Shards is inert, not an error.
	if _, err := e.Prepare(Spec{Query: twoPath, Order: "x, y, z", ShardBy: "w"}); err != nil {
		t.Fatalf("inert shard_by rejected: %v", err)
	}
}

func TestCountSharded(t *testing.T) {
	e := New(randomInstance(500, 40, 23), Options{})
	want, err := e.Count(twoPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8} {
		got, info, err := e.CountSharded(context.Background(), twoPath, p, "")
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got != want {
			t.Fatalf("P=%d: count %d, want %d", p, got, want)
		}
		if info.Shards != p || info.ShardBy == "" || info.ShardNote != "" {
			t.Fatalf("P=%d: info = %+v", p, info)
		}
	}
	if _, _, err := e.CountSharded(context.Background(), twoPath, 2, "nope"); err == nil {
		t.Fatal("bad shard_by accepted by CountSharded")
	}
	// Unshardable queries fall back to the global count and say so.
	got, info, err := e.CountSharded(context.Background(), "Q() :- R(x, y)", 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("boolean count = %d, want 1", got)
	}
	if info.Shards != 0 || info.ShardNote == "" {
		t.Fatalf("fallback info = %+v, want unsharded with a note", info)
	}
}

// TestShardedConcurrentAccess hammers one sharded handle from many
// goroutines (run under -race in CI).
func TestShardedConcurrentAccess(t *testing.T) {
	e := New(randomInstance(400, 40, 29), Options{})
	s := Spec{Query: twoPath, Order: "x, y, z", Shards: 4}
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Prepare(Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	total := h.Total()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var dst, want []values.Value
			for k := int64(g); k < total; k += 8 {
				var err error
				dst, err = h.AppendTuple(dst[:0], k)
				if err != nil {
					done <- err
					return
				}
				want, _ = ref.AppendTuple(want[:0], k)
				for i := range want {
					if dst[i] != want[i] {
						done <- errors.New("concurrent sharded access mismatch")
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
