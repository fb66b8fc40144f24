package shard

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/selection"
	"rankedaccess/internal/values"
)

// pathQuery returns Q(x, y, z) :- R(x, y), S(y, z) with a random
// instance of n tuples per relation over a domain of size dom.
func pathQuery(t *testing.T, rng *rand.Rand, n, dom int) (*cq.Query, *database.Instance) {
	t.Helper()
	q, err := cq.Parse("Q(x, y, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	in := database.NewInstance()
	for i := 0; i < n; i++ {
		in.AddRow("R", values.Value(rng.Intn(dom)), values.Value(rng.Intn(dom)))
		in.AddRow("S", values.Value(rng.Intn(dom)), values.Value(rng.Intn(dom)))
	}
	in.SetRelation("R", in.Relation("R").Dedup())
	in.SetRelation("S", in.Relation("S").Dedup())
	return q, in
}

// buildAll builds every shard with kind k and merges them.
func buildAll(q *cq.Query, in *database.Instance, k Kind, pt Partitioning) (*Handle, error) {
	return Merge(Build(context.Background(), q, in, k, pt, nil))
}

func TestChoose(t *testing.T) {
	q, err := cq.Parse("Q(x, y, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Choose(q, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if pt.VarName != "y" || pt.P != 4 {
		t.Fatalf("auto choice = %+v, want y (in both atoms) with P=4", pt)
	}
	if pt, err = Choose(q, "x", 2); err != nil || pt.VarName != "x" {
		t.Fatalf("explicit choice = %+v, %v", pt, err)
	}
	if _, err = Choose(q, "nope", 2); err == nil {
		t.Fatal("unknown explicit variable must be an error")
	}
	var ue *UnshardableError
	if errors.As(err, &ue) {
		t.Fatal("bad explicit variable must not be UnshardableError (it is a caller bug)")
	}

	proj, err := cq.Parse("Q(x) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Choose(proj, "y", 2); err == nil {
		t.Fatal("existential partition variable must be an error")
	}

	boolean, err := cq.Parse("Q() :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Choose(boolean, "", 2); !errors.As(err, &ue) {
		t.Fatalf("boolean query: got %v, want UnshardableError", err)
	}

	selfjoin, err := cq.Parse("Q(x, y, z) :- R(x, y), R(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Choose(selfjoin, "", 2); !errors.As(err, &ue) {
		t.Fatalf("self-join: got %v, want UnshardableError", err)
	}
}

func TestSplitPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q, in := pathQuery(t, rng, 300, 40)
	pt, err := Choose(q, "x", 3) // x is only in R: R split, S replicated
	if err != nil {
		t.Fatal(err)
	}
	ins := Split(q, in, pt)
	if len(ins) != 3 {
		t.Fatalf("got %d shard instances, want 3", len(ins))
	}
	totalR := 0
	for i, si := range ins {
		r := si.Relation("R")
		for j := 0; j < r.Len(); j++ {
			if got := ShardOf(r.Tuple(j)[0], 3); got != i {
				t.Fatalf("tuple %v in shard %d, hash says %d", r.Tuple(j), i, got)
			}
		}
		totalR += r.Len()
		if si.Relation("S") != in.Relation("S") {
			t.Fatal("relation without the partition variable must be shared by reference")
		}
	}
	if totalR != in.Relation("R").Len() {
		t.Fatalf("split lost tuples: %d != %d", totalR, in.Relation("R").Len())
	}
}

// expectAnswersEqual compares the full global answer sequences of a
// reference accessor and a sharded handle, plus rank/inverted and
// out-of-bound behavior.
func checkLexEquivalence(t *testing.T, q *cq.Query, single *access.Lex, sh *Handle) {
	t.Helper()
	if single.Total() != sh.Total() {
		t.Fatalf("total: single %d, sharded %d", single.Total(), sh.Total())
	}
	total := single.Total()
	var dst []values.Value
	for k := int64(0); k < total; k++ {
		want, err := single.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.Access(k)
		if err != nil {
			t.Fatalf("sharded Access(%d): %v", k, err)
		}
		for _, v := range q.Head {
			if want[v] != got[v] {
				t.Fatalf("k=%d: single %v, sharded %v", k, want, got)
			}
		}
		dst, err = sh.AppendTuple(dst[:0], q.Head, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range q.Head {
			if dst[i] != want[v] {
				t.Fatalf("k=%d AppendTuple mismatch: %v vs %v", k, dst, want)
			}
		}
		inv, err := sh.Inverted(want)
		if err != nil || inv != k {
			t.Fatalf("Inverted(answer %d) = %d, %v", k, inv, err)
		}
	}
	// Whole-range merge must equal per-k access.
	dst, err := sh.AppendRange(nil, q.Head, 0, total)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(dst)) != total*int64(len(q.Head)) {
		t.Fatalf("range length %d, want %d", len(dst), total*int64(len(q.Head)))
	}
	for k := int64(0); k < total; k++ {
		want, _ := single.Access(k)
		for i, v := range q.Head {
			if dst[k*int64(len(q.Head))+int64(i)] != want[v] {
				t.Fatalf("range k=%d col %d mismatch", k, i)
			}
		}
	}
	// Out-of-bound and empty windows.
	if _, err := sh.Access(total); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("Access(total) = %v, want ErrOutOfBound", err)
	}
	if _, err := sh.Access(-1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("Access(-1) = %v, want ErrOutOfBound", err)
	}
	if out, err := sh.AppendRange(nil, q.Head, 5, 5); err != nil || len(out) != 0 {
		t.Fatalf("empty range: %v, %v", out, err)
	}
	if _, err := sh.AppendRange(nil, q.Head, 0, total+1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("over-wide range = %v, want ErrOutOfBound", err)
	}
}

func TestShardedLexMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{30, 400} {
		q, in := pathQuery(t, rng, n, 25)
		l, err := order.ParseLex(q, "y desc, x")
		if err != nil {
			t.Fatal(err)
		}
		single, err := access.BuildLex(q, in, l)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 8} {
			pt, err := Choose(q, "", p)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := BuildLex(q, in, l, pt)
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			checkLexEquivalence(t, q, single, sh)
			// Rank of non-answers agrees with the single structure.
			for i := 0; i < 50; i++ {
				a := make(order.Answer, q.NumVars())
				for _, v := range q.Head {
					a[v] = values.Value(rng.Intn(30))
				}
				wantK, wantEx := single.Rank(a)
				gotK, gotEx, rerr := sh.Rank(a)
				if rerr != nil {
					t.Fatalf("P=%d Rank(%v): %v", p, a, rerr)
				}
				if wantK != gotK || wantEx != gotEx {
					t.Fatalf("P=%d Rank(%v): single (%d,%v), sharded (%d,%v)",
						p, a, wantK, wantEx, gotK, gotEx)
				}
			}
		}
	}
}

func TestEmptyShards(t *testing.T) {
	// Two distinct partition values and eight shards: most shards hold
	// nothing and the merge must still be exact.
	q, err := cq.Parse("Q(x, y, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	in := database.NewInstance()
	for i := 0; i < 6; i++ {
		in.AddRow("R", values.Value(i%3), values.Value(i%2))
		in.AddRow("S", values.Value(i%2), values.Value(i))
	}
	l, err := order.ParseLex(q, "")
	if err != nil {
		t.Fatal(err)
	}
	single, err := access.BuildLex(q, in, l)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Choose(q, "y", 8)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildLex(q, in, l, pt)
	if err != nil {
		t.Fatal(err)
	}
	checkLexEquivalence(t, q, single, sh)
}

func TestShardedSumMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q, err := cq.Parse("Q(x, y) :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	in := database.NewInstance()
	for i := 0; i < 500; i++ {
		in.AddRow("R", values.Value(rng.Intn(40)), values.Value(rng.Intn(40)))
	}
	in.SetRelation("R", in.Relation("R").Dedup())
	x, _ := q.VarByName("x")
	y, _ := q.VarByName("y")
	w := order.IdentitySum(x, y)
	single, err := access.BuildSum(q, in, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 8} {
		pt, err := Choose(q, "", p)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := buildAll(q, in, Kind{IsSum: true, Sum: w}, pt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if single.Total() != sh.Total() {
			t.Fatalf("total: %d vs %d", single.Total(), sh.Total())
		}
		for k := int64(0); k < single.Total(); k++ {
			want, _ := single.Access(k)
			got, err := sh.Access(k)
			if err != nil {
				t.Fatalf("P=%d Access(%d): %v", p, k, err)
			}
			if want[x] != got[x] || want[y] != got[y] {
				t.Fatalf("P=%d k=%d: %v vs %v", p, k, want, got)
			}
		}
		if _, err := sh.Access(single.Total()); !errors.Is(err, access.ErrOutOfBound) {
			t.Fatalf("Access(total) = %v", err)
		}
	}
}

func TestShardedMaterializedMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q, in := pathQuery(t, rng, 150, 20)
	l, err := order.ParseLex(q, "z desc")
	if err != nil {
		t.Fatal(err)
	}
	single := access.BuildMaterializedLex(q, in, l)
	for _, p := range []int{2, 5} {
		pt, err := Choose(q, "", p)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := buildAll(q, in, Kind{Materialized: true, Lex: l}, pt)
		if err != nil {
			t.Fatal(err)
		}
		if single.Total() != sh.Total() {
			t.Fatalf("total: %d vs %d", single.Total(), sh.Total())
		}
		for k := int64(0); k < single.Total(); k++ {
			want, _ := single.Access(k)
			got, err := sh.Access(k)
			if err != nil {
				t.Fatalf("P=%d Access(%d): %v", p, k, err)
			}
			for _, v := range q.Head {
				if want[v] != got[v] {
					t.Fatalf("P=%d k=%d: %v vs %v", p, k, want, got)
				}
			}
		}
	}
}

func TestShardedMaterializedSumMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q, in := pathQuery(t, rng, 150, 20)
	x, _ := q.VarByName("x")
	z, _ := q.VarByName("z")
	w := order.IdentitySum(x, z)
	single := access.BuildMaterializedSum(q, in, w)
	for _, p := range []int{2, 5} {
		pt, err := Choose(q, "", p)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := buildAll(q, in, Kind{IsSum: true, Materialized: true, Sum: w}, pt)
		if err != nil {
			t.Fatal(err)
		}
		if single.Total() != sh.Total() {
			t.Fatalf("total: %d vs %d", single.Total(), sh.Total())
		}
		for k := int64(0); k < single.Total(); k++ {
			want, _ := single.Access(k)
			got, err := sh.Access(k)
			if err != nil {
				t.Fatalf("P=%d Access(%d): %v", p, k, err)
			}
			for _, v := range q.Head {
				if want[v] != got[v] {
					t.Fatalf("P=%d k=%d: %v vs %v", p, k, got, want)
				}
			}
			inv, ok, rerr := sh.Rank(want)
			if rerr != nil || !ok || inv != k {
				t.Fatalf("P=%d Rank(answer %d) = (%d, %v)", p, k, inv, ok)
			}
		}
		// A full range merge exercises the (weight, head) comparator.
		flat, err := sh.AppendRange(nil, q.Head, 0, sh.Total())
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < single.Total(); k++ {
			want, _ := single.Access(k)
			for i, v := range q.Head {
				if flat[k*int64(len(q.Head))+int64(i)] != want[v] {
					t.Fatalf("P=%d range k=%d col %d mismatch", p, k, i)
				}
			}
		}
	}
}

func TestShardedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, in := pathQuery(t, rng, 400, 30)
	want, err := selection.CountAnswers(q, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 8} {
		pt, err := Choose(q, "", p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Count(q, in, pt, nil)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got != want {
			t.Fatalf("P=%d count = %d, want %d", p, got, want)
		}
	}
}
