package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"rankedaccess/internal/baseline"
	"rankedaccess/internal/order"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/shard/shardtest"
)

// flipCtx is a context whose deadline expires mid-build,
// deterministically: Err reports nil for its first live calls and
// context.Canceled ever after. Done is non-nil (and never closes) so
// the wave scheduler treats the context as cancellable and polls Err.
type flipCtx struct {
	context.Context
	live atomic.Int64
	done chan struct{}
}

func newFlipCtx(live int64) *flipCtx {
	c := &flipCtx{Context: context.Background(), done: make(chan struct{})}
	c.live.Store(live)
	return c
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	if c.live.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

// TestShardedBuildHonoursContext: a context that is live when the build
// starts (so the up-front check passes) and expires before the first
// preprocessing wave must abandon sharded and owned layered builds,
// exactly as it abandons unsharded ones.
func TestShardedBuildHonoursContext(t *testing.T) {
	e := New(randomInstance(600, 48, 17), Options{})
	for _, s := range []Spec{
		{Query: twoPath, Order: "x, y, z"},
		{Query: twoPath, Order: "x, y, z", Shards: 4},
	} {
		if _, err := e.PrepareCtx(newFlipCtx(1), s); !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: PrepareCtx under an expiring context = %v, want context.Canceled", s, err)
		}
		// The abandoned build poisoned nothing: a live requester builds.
		h, err := e.Prepare(s)
		if err != nil || h.Plan.Mode != ModeLayeredLex || h.Plan.Shards != s.Shards {
			t.Fatalf("%+v: Prepare after an abandoned build = %+v, %v", s, h, err)
		}
	}

	dp, err := PlanDistributed(Spec{Query: twoPath, Order: "x, y, z"}, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildOwned(newFlipCtx(1), dp, []int{0, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildOwned under an expiring context = %v, want context.Canceled", err)
	}
	if _, err := e.BuildOwned(context.Background(), dp, []int{0, 2}); err != nil {
		t.Fatalf("BuildOwned after an abandoned build: %v", err)
	}
}

// TestPlanParityAcrossOwners pins that the one ladder lands every
// (query, order) on the same structure mode whoever owns the shards —
// a local engine unsharded, a local engine with Shards: 4, and two
// nodes owning {0,2} and {1,3} of 4 — and that each of the three
// serves Q(I) in exactly the order the brute-force baseline sorts it.
func TestPlanParityAcrossOwners(t *testing.T) {
	e, eFD := shardEngines()
	cases := []struct {
		name      string
		spec      Spec
		eng       *Engine
		mode      Mode
		tractable bool
	}{
		{"two-path lex", Spec{Query: twoPath, Order: "x, y, z"}, e, ModeLayeredLex, true},
		{"disruptive trio", Spec{Query: twoPath, Order: "x, z, y"}, e, ModeMaterialized, false},
		{"tractable sum", Spec{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}}, e, ModeSum, true},
		{"intractable sum", Spec{Query: twoPath, SumBy: []string{"x", "y", "z"}}, e, ModeMaterialized, false},
		{"non-free-connex", Spec{Query: "Q(x, z) :- R(x, y), S(y, z)", Order: "x, z"}, e, ModeMaterialized, false},
		{"FD-rescued lex", Spec{Query: twoPath, Order: "x, z, y", FDs: []string{"S: y -> z"}}, eFD, ModeLayeredLex, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := parseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			var sorted []order.Answer
			if p.sum {
				sorted = baseline.SortedBySum(p.q, tc.eng.in, p.w)
			} else {
				sorted = baseline.SortedByLex(p.q, tc.eng.in, p.l)
			}
			var want []int64
			for _, a := range sorted {
				for _, v := range p.q.Head {
					want = append(want, a[v])
				}
			}
			total := int64(len(sorted))
			// check compares one owner's full range and a strided sample
			// of point probes against the baseline.
			check := func(owner string, rng func(k0, k1 int64) ([]int64, error)) {
				t.Helper()
				got, err := rng(0, total)
				if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: range [0, %d) diverges from the baseline (err %v)", owner, total, err)
				}
				w := int64(len(p.q.Head))
				for k := int64(0); k < total; k += 97 {
					got, err := rng(k, k+1)
					if err != nil || fmt.Sprint(got) != fmt.Sprint(want[k*w:(k+1)*w]) {
						t.Fatalf("%s: answer %d = %v (%v), want %v", owner, k, got, err, want[k*w:(k+1)*w])
					}
				}
				if _, err := rng(total, total+1); err == nil {
					t.Fatalf("%s: answer %d of %d served", owner, total, total)
				}
			}

			sharded := tc.spec
			sharded.Shards = 4
			for _, s := range []Spec{tc.spec, sharded} {
				h, err := tc.eng.Prepare(s)
				if err != nil {
					t.Fatal(err)
				}
				if h.Plan.Mode != tc.mode || h.Plan.Tractable != tc.tractable || h.Plan.Shards != s.Shards {
					t.Fatalf("Shards=%d: plan %+v, want mode %s tractable %v", s.Shards, h.Plan, tc.mode, tc.tractable)
				}
				check(fmt.Sprintf("local Shards=%d", s.Shards), func(k0, k1 int64) ([]int64, error) {
					return h.AccessRange(nil, k0, k1)
				})
			}

			dp, err := PlanDistributed(tc.spec, 4, "")
			if len(tc.spec.FDs) > 0 {
				// The distributed path serves the plain dichotomies only;
				// coordinator and nodes both learn that here.
				if err == nil || err.Error() != "engine: distributed serving does not support FD specs" {
					t.Fatalf("PlanDistributed(FD spec) = %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var owned []*shard.Owned
			for _, shards := range [][]int{{0, 2}, {1, 3}} {
				nb, err := tc.eng.BuildOwned(context.Background(), dp, shards)
				if err != nil {
					t.Fatal(err)
				}
				if nb.Mode != tc.mode {
					t.Fatalf("owned %v: mode %s, want %s", shards, nb.Mode, tc.mode)
				}
				owned = append(owned, nb.Owned)
			}
			kind, err := dp.Kind(tc.mode)
			if err != nil || kind.Materialized == tc.tractable {
				t.Fatalf("Kind(%s) = %+v, %v", tc.mode, kind, err)
			}
			// Two nodes' owned halves merge through the coordinator's
			// machinery — its router's split, scatter and placement —
			// without a network.
			merged, err := shardtest.New(owned...).Handle(context.Background(), kind)
			if err != nil {
				t.Fatal(err)
			}
			check("owned {0,2}+{1,3}", func(k0, k1 int64) ([]int64, error) {
				if k1 == k0+1 {
					return merged.AppendTuple(nil, dp.Query.Head, k0)
				}
				return merged.AppendRange(nil, dp.Query.Head, k0, k1)
			})
		})
	}
}
