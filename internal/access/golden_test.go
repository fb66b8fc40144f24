package access

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/reduce"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// partsHash is a SHA-256 over every field of a structure's parts, in a
// fixed binary layout: two builds hash alike exactly when their layers
// are byte-identical.
func partsHash(p *LexParts) string {
	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		}
	}
	ints := func(xs []int) {
		put(int64(len(xs)))
		for _, x := range xs {
			put(int64(x))
		}
	}
	put(p.Total, int64(p.NumVars), p.Boolean, p.BoolTrue, int64(len(p.Completed.Entries)))
	for _, e := range p.Completed.Entries {
		put(int64(e.Var), int64(e.Dir))
	}
	put(int64(len(p.Layers)))
	for _, lp := range p.Layers {
		put(int64(lp.Var), lp.Desc, int64(lp.Parent), int64(len(lp.KeyVars)))
		for _, u := range lp.KeyVars {
			put(int64(u))
		}
		put(int64(len(lp.Vals)), lp.Vals, int64(len(lp.Starts)), lp.Starts,
			int64(len(lp.ChildOf)), lp.ChildOf)
		ints(lp.BucketStart)
		put(int64(len(lp.BucketWeight)), lp.BucketWeight)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fdTwoPath is the two-path instance with S: y -> z, n tuples per
// relation: z is a fixed function of y.
func fdTwoPath(rng *rand.Rand, n, dom int) *database.Instance {
	in := database.NewInstance()
	for i := 0; i < n; i++ {
		in.AddRow("R", values.Value(rng.Int63n(int64(dom))), values.Value(rng.Int63n(int64(dom))))
		y := rng.Int63n(int64(dom))
		in.AddRow("S", values.Value(y), values.Value(y*7919%int64(dom)))
	}
	return in
}

// TestLayeredBuildGolden pins the layered build byte for byte: each
// case hashes the parts of a seeded build, and a change to
// preprocessing that moves any layer's vals, starts, childOf, bucket
// starts or bucket weights moves the hash. The hashes were recorded
// before the build's sort and set-semantics passes were rewritten.
func TestLayeredBuildGolden(t *testing.T) {
	const n = 4096
	type instance func() (*cq.Query, *database.Instance)
	twoPath := func(seed int64) instance {
		return func() (*cq.Query, *database.Instance) {
			return workload.TwoPath(rand.New(rand.NewSource(seed)), n, n/4, 0.4)
		}
	}
	threePath := func() (*cq.Query, *database.Instance) {
		return workload.KPath(rand.New(rand.NewSource(1)), 3, n, n/4, 0.4)
	}
	cases := []struct {
		name  string
		inst  instance
		order string
		fds   []string
		want  string
	}{
		{"twopath/seed1/asc", twoPath(1), "x, y, z", nil, "47f768625836b5012e3e379887dfb404b715100902db4accac476764ec5b9ba0"},
		{"twopath/seed1/desc", twoPath(1), "x desc, y, z desc", nil, "98d5ed52338ce2c70c3f8b4229063b77657de1a2f1addac77aaf85a05c58be9b"},
		{"twopath/seed1/yxz", twoPath(1), "y, x, z", nil, "931b696673cf8b210d4caec1784707b42c6c1ed598733baf48058f6b6f4c8d33"},
		{"twopath/seed7/asc", twoPath(7), "x, y, z", nil, "27b78fe83725e01d276c43022b0ba9806494738116301d7e1af25c5293feacf1"},
		{"twopath/seed7/desc", twoPath(7), "x desc, y, z desc", nil, "b52ee20ea3593f09dea5152f5434a9835d7cfd06855d22a7607432f975da598e"},
		{"twopath/seed7/yxz", twoPath(7), "y, x, z", nil, "8994bc6c401fd1f7587c081c3a6cdb92c1720521a2a53c3573795e7325fb7c7b"},
		{"threepath/asc", threePath, "x0, x1, x2, x3", nil, "8b6fe40fabafd9ef2fbb780879ac25db4eecc09d14e16b4df2915272a376ede8"},
		{"threepath/desc", threePath, "x0 desc, x1, x2, x3 desc", nil, "2bdf90758bee02326c03fd4fe41636fd6821fcff9b3f675ac2984ba52088759f"},
		{"threepath/x1x0", threePath, "x1, x0, x2, x3", nil, "067904f4b7e1d53b6c175ee0426e0de5f6ce30e29804839da146eafa46a68095"},
		{"fd/twopath", func() (*cq.Query, *database.Instance) {
			return cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)"), fdTwoPath(rand.New(rand.NewSource(1)), n, n/4)
		}, "x, z, y", []string{"S: y -> z"}, "c65d31c7a4e9ec4ef1c2ca612412eb2f17617aa4c41f28069f38b0ed7bda860d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, in := c.inst()
			var fds fd.Set
			for _, s := range c.fds {
				fds = append(fds, fd.MustParse(q, s)...)
			}
			la, err := BuildLexFD(q, in, lex(t, q, c.order), fds)
			if err != nil {
				t.Fatal(err)
			}
			// Parts refuses the FD closures, which cannot be persisted;
			// the layers under them are what this test pins.
			la.project, la.extend = nil, nil
			p, ok := la.Parts()
			if !ok {
				t.Fatal("no parts")
			}
			if got := partsHash(p); got != c.want {
				t.Errorf("parts hash %s, want %s", got, c.want)
			}
		})
	}
}

// TestBucketizeRefusesDuplicateRows: a layer relation is a set, and
// bucketize checks it rather than counting a repeated tuple twice.
func TestBucketizeRefusesDuplicateRows(t *testing.T) {
	q, in := workload.TwoPath(rand.New(rand.NewSource(1)), 64, 8, 0.4)
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		t.Fatal(err)
	}
	completed, err := completeOrder(full, lex(t, q, "x, y, z"))
	if err != nil {
		t.Fatal(err)
	}
	lb := &lexBuild{Lex: &Lex{Query: q, numVars: q.NumVars()}}
	if err := lb.buildTree(full, completed); err != nil {
		t.Fatal(err)
	}
	lb.semijoinReduce()
	leaf := lb.rels[len(lb.rels)-1]
	leaf.Append(leaf.Tuple(leaf.Len() / 2)...)
	err = lb.computeWeights(context.Background())
	if err == nil || !strings.Contains(err.Error(), "duplicate tuple") {
		t.Fatalf("computeWeights over a repeated tuple: %v, want a duplicate-tuple error", err)
	}
}
