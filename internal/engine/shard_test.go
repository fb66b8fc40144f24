package engine

import (
	"context"
	"errors"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/values"
)

// loopback is a RemoteBuilder over one data engine: it plans a spec for
// p shards as a coordinator does, builds the even and the odd shards as
// two nodes' owned halves, and merges them over shardtest.Loopback — a
// cluster minus the network.
type loopback struct {
	data *Engine
	p    int
}

// coordinator returns a coordinator engine over p shards of data.
func coordinator(data *Engine, p int) *Engine {
	return New(nil, Options{Remote: loopback{data: data, p: p}})
}

func (l loopback) BuildRemote(ctx context.Context, s Spec) (*RemoteHandle, error) {
	dp, err := PlanDistributed(s, l.p, s.ShardBy)
	if err != nil {
		return nil, err
	}
	halves := make([][]int, min(l.p, 2))
	for i := 0; i < l.p; i++ {
		halves[i%2] = append(halves[i%2], i)
	}
	var owned []*shard.Owned
	var mode Mode
	for _, half := range halves {
		nb, err := l.data.BuildOwned(ctx, dp, half)
		if err != nil {
			return nil, err
		}
		owned, mode = append(owned, nb.Owned), nb.Mode
	}
	kind, err := dp.Kind(mode)
	if err != nil {
		return nil, err
	}
	sh, err := shardtest.New(owned...).Handle(ctx, kind)
	if err != nil {
		return nil, err
	}
	plan := Plan{Mode: mode, Tractable: !kind.Materialized, Verdict: dp.Verdict(), Shards: l.p, ShardBy: dp.Part.VarName}
	return &RemoteHandle{Query: dp.Query, Plan: plan, Sh: sh}, nil
}

func (l loopback) CountRemote(ctx context.Context, query, by string) (int64, CountInfo, error) {
	dp, err := PlanDistributed(Spec{Query: query}, l.p, by)
	if err != nil {
		return 0, CountInfo{}, err
	}
	n, err := l.data.CountOwned(dp, nil)
	return n, CountInfo{Shards: l.p, ShardBy: dp.Part.VarName}, err
}

// shardSpecs cover every structure mode a coordinator serves:
// layered-lex, sum, and materialized (intractable order).
var shardSpecs = []Spec{
	{Query: twoPath, Order: "x, y, z"},
	{Query: twoPath, Order: "y desc, x"},
	{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}},
	{Query: twoPath, Order: "x, z, y"},
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

// TestShardedMatchesSingle cross-checks a coordinator over loopback
// shard nodes against the single local structure on randomized
// instances: identical answers for ranked access, ranges, totals, and
// inverted access, for P ∈ {2, 3, 8}.
func TestShardedMatchesSingle(t *testing.T) {
	e, _ := shardEngines()
	for _, s := range shardSpecs {
		ref, err := e.Prepare(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		total := ref.Total()
		if total < 8 {
			t.Fatalf("%+v: too few answers (%d)", s, total)
		}
		for _, p := range []int{2, 3, 8} {
			c := coordinator(e, p)
			h, err := c.Prepare(s)
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
				if !eqValues(got, want) {
					t.Fatalf("%+v k=%d: %v vs %v", s, k, got, want)
				}
				wa, err1 := ref.Access(k)
				ga, err2 := h.Access(k)
				if err1 != nil || err2 != nil {
					t.Fatalf("%+v k=%d: %v, %v", s, k, err1, err2)
				}
				if !eqValues(ga, wa) {
					t.Fatalf("%+v k=%d: answers %v vs %v", s, k, ga, wa)
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
			_, wantFlat, err := e.AccessRange(s, nil, 0, total)
			if err != nil {
				t.Fatal(err)
			}
			_, gotFlat, err := c.AccessRange(s, nil, 0, total)
			if err != nil {
				t.Fatalf("%+v: AccessRange: %v", s, err)
			}
			if !eqValues(gotFlat, wantFlat) {
				t.Fatalf("%+v: range scans differ", s)
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

// TestShardSpecIdentity: a local engine ignores the shard fields, so a
// sharded spec shares the bare spec's cache slot — one build, the same
// bytes. A coordinator drops Shards from the key (its cluster fixes the
// count) but keeps ShardBy, which picks its partition variable.
func TestShardSpecIdentity(t *testing.T) {
	e := New(randomInstance(200, 32, 5), Options{})
	base := Spec{Query: twoPath, Order: "x, y, z"}
	h1, err := e.Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h1.AccessRange(nil, 0, h1.Total())
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards, sharded.ShardBy = 4, "y"
	h2, got, err := e.AccessRange(sharded, nil, 0, h1.Total())
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h1 || e.Stats().Misses != 1 || e.Stats().Entries != 1 {
		t.Fatalf("sharded spec took its own slot: %+v", e.Stats())
	}
	if !eqValues(got, want) || h2.Plan.Shards != 0 || h2.Plan.ShardBy != "" {
		t.Fatalf("sharded spec served differently: plan %+v", h2.Plan)
	}

	c := coordinator(e, 2)
	hc, err := c.Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := c.Prepare(sharded); err != nil || h == hc || h.Plan.ShardBy != "y" {
		t.Fatalf("coordinator shard_by y shared the default slot: %+v, %v", h, err)
	}
	sharded.Shards = 8
	if h, err := c.Prepare(sharded); err != nil || h.Plan.Shards != 2 || c.Stats().Entries != 2 {
		t.Fatalf("coordinator keyed on the request's shard count: %+v, %+v, %v", h, c.Stats(), err)
	}
}

// TestShardByValidation: a coordinator refuses a partition variable
// that is unknown or existential; a local engine ignores it.
func TestShardByValidation(t *testing.T) {
	e := New(smallInstance(), Options{})
	c := coordinator(e, 2)
	for _, s := range []Spec{
		{Query: twoPath, Order: "x, y, z", Shards: 2, ShardBy: "w"},
		{Query: "Q(x, z) :- R(x, y), S(y, z)", Order: "", Shards: 2, ShardBy: "y"},
	} {
		if _, err := c.Prepare(s); err == nil {
			t.Fatalf("coordinator accepted shard_by %q", s.ShardBy)
		}
		if _, _, err := c.CountCtx(context.Background(), s.Query, s.ShardBy); err == nil {
			t.Fatalf("coordinator count accepted shard_by %q", s.ShardBy)
		}
		if _, err := e.Prepare(s); err != nil {
			t.Fatalf("local engine refused ignored shard_by %q: %v", s.ShardBy, err)
		}
	}
}

// TestCountSharded: a coordinator's scatter-gathered count equals the
// local count and echoes its partitioning; an unshardable query has no
// single-structure fallback across nodes, so the coordinator refuses it.
func TestCountSharded(t *testing.T) {
	e := New(randomInstance(500, 40, 23), Options{})
	want, err := e.Count(twoPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8} {
		got, info, err := coordinator(e, p).CountCtx(context.Background(), twoPath, "")
		if err != nil || got != want {
			t.Fatalf("P=%d: count %d, %v; want %d", p, got, err, want)
		}
		if info.Shards != p || info.ShardBy == "" || info.ShardNote != "" {
			t.Fatalf("P=%d: info = %+v", p, info)
		}
	}
	if _, _, err := coordinator(e, 4).CountCtx(context.Background(), "Q() :- R(x, y)", ""); err == nil {
		t.Fatal("coordinator counted a Boolean query")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.CountCtx(ctx, twoPath, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("local count under a cancelled context = %v", err)
	}
}

// TestShardedConcurrentAccess hammers one coordinator handle from many
// goroutines (run under -race in CI).
func TestShardedConcurrentAccess(t *testing.T) {
	e := New(randomInstance(400, 40, 29), Options{})
	s := Spec{Query: twoPath, Order: "x, y, z"}
	h, err := coordinator(e, 4).Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Prepare(s)
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
				if !eqValues(dst, want) {
					done <- errors.New("concurrent sharded access mismatch")
					return
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
