package delta

import (
	"math/rand"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

func TestLogSinceAndTruncation(t *testing.T) {
	l := NewLog(4)
	for seq := uint64(1); seq <= 3; seq++ {
		l.Append(Batch{Seq: seq})
	}
	if got, ok := l.Since(0); !ok || len(got) != 3 {
		t.Fatalf("Since(0) = %d batches, ok=%v", len(got), ok)
	}
	if got, ok := l.Since(2); !ok || len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("Since(2) wrong: %v ok=%v", got, ok)
	}
	if got, ok := l.Since(3); !ok || len(got) != 0 {
		t.Fatalf("Since(3) = %d batches, ok=%v", len(got), ok)
	}
	for seq := uint64(4); seq <= 8; seq++ {
		l.Append(Batch{Seq: seq})
	}
	// Limit 4: batches 1-4 dropped, base = 4.
	if _, ok := l.Since(3); ok {
		t.Fatal("Since(3) should report truncation")
	}
	if got, ok := l.Since(4); !ok || len(got) != 4 {
		t.Fatalf("Since(4) = %d batches, ok=%v", len(got), ok)
	}
	if l.Last() != 8 {
		t.Fatalf("Last = %d", l.Last())
	}
	l.Reset(20)
	if _, ok := l.Since(8); ok {
		t.Fatal("Since after Reset should report truncation")
	}
	if got, ok := l.Since(20); !ok || len(got) != 0 {
		t.Fatalf("Since(reset floor) = %d batches, ok=%v", len(got), ok)
	}
}

// answerKey flattens a head projection for set comparison.
func answerKey(q *cq.Query, a order.Answer) [4]values.Value {
	var k [4]values.Value
	for i, v := range q.Head {
		k[i] = a[v]
	}
	return k
}

func answerSet(q *cq.Query, as []order.Answer) map[[4]values.Value]bool {
	out := make(map[[4]values.Value]bool, len(as))
	for _, a := range as {
		out[answerKey(q, a)] = true
	}
	return out
}

// naiveAnswers is an independent evaluation of Q(I) under set
// semantics, used as the oracle for Diff.
func naiveAnswers(q *cq.Query, in *database.Instance) []order.Answer {
	var out []order.Answer
	seen := map[[4]values.Value]bool{}
	var rec func(ai int, asg order.Answer, bound []bool)
	rec = func(ai int, asg order.Answer, bound []bool) {
		if ai == len(q.Atoms) {
			k := answerKey(q, asg)
			if !seen[k] {
				seen[k] = true
				a := make(order.Answer, len(asg))
				for _, v := range q.Head {
					a[v] = asg[v]
				}
				out = append(out, a)
			}
			return
		}
		r := in.Relation(q.Atoms[ai].Rel)
		if r == nil {
			return
		}
		vars := q.Atoms[ai].Vars
		if r.Arity() != len(vars) {
			return
		}
		for i := 0; i < r.Len(); i++ {
			row := r.Tuple(i)
			var undo []cq.VarID
			ok := true
			for j, v := range vars {
				if bound[v] {
					if asg[v] != row[j] {
						ok = false
						break
					}
					continue
				}
				asg[v] = row[j]
				bound[v] = true
				undo = append(undo, v)
			}
			if ok {
				rec(ai+1, asg, bound)
			}
			for _, v := range undo {
				bound[v] = false
			}
		}
	}
	rec(0, make(order.Answer, q.NumVars()), make([]bool, q.NumVars()))
	return out
}

func TestDiffMatchesNaiveRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	for trial := 0; trial < 30; trial++ {
		old := database.NewInstance()
		for i := 0; i < 40; i++ {
			old.AddRow("R", values.Value(rng.Intn(8)), values.Value(rng.Intn(8)))
			old.AddRow("S", values.Value(rng.Intn(8)), values.Value(rng.Intn(8)))
		}
		cur := old.Clone()
		// Random batch span: inserts and deletes over both relations.
		var muts []Mutation
		for _, rel := range []string{"R", "S"} {
			var ins, del []values.Value
			for i := 0; i < rng.Intn(6); i++ {
				ins = append(ins, values.Value(rng.Intn(8)), values.Value(rng.Intn(8)))
			}
			r := cur.Relation(rel)
			for i := 0; i < rng.Intn(4); i++ {
				row := r.Tuple(rng.Intn(r.Len()))
				del = append(del, row[0], row[1])
			}
			if len(ins) > 0 {
				muts = append(muts, Mutation{Op: OpInsert, Rel: rel, Arity: 2, Rows: ins})
			}
			if len(del) > 0 {
				muts = append(muts, Mutation{Op: OpDelete, Rel: rel, Arity: 2, Rows: del})
			}
		}
		// Apply to cur the way the engine does.
		for _, m := range muts {
			for i := 0; i < m.NumRows(); i++ {
				row := m.Row(i)
				if m.Op == OpInsert {
					cur.AddRow(m.Rel, row...)
				} else {
					cur.DeleteRow(m.Rel, row...)
				}
			}
		}
		oldAns := naiveAnswers(q, old)
		curAns := naiveAnswers(q, cur)
		oldSet := answerSet(q, oldAns)
		curSet := answerSet(q, curAns)

		rels := map[string]bool{"R": true, "S": true}
		sp := CollectSpan([]Batch{{Seq: 1, Muts: muts}}, rels)
		member := func(a order.Answer) bool { return oldSet[answerKey(q, a)] }
		for _, ix := range []Index{nil, chainIndex{cur}} {
			adds, dels := Diff(q, cur, sp, member, ix)
			checkDiff(t, trial, q, oldSet, curSet, adds, dels)
		}
	}
}

// checkDiff checks that applying adds and dels to the old answer set
// gives the new one.
func checkDiff(t *testing.T, trial int, q *cq.Query, oldSet, curSet map[[4]values.Value]bool, adds, dels []order.Answer) {
	t.Helper()
	got := make(map[[4]values.Value]bool, len(oldSet))
	for k := range oldSet {
		got[k] = true
	}
	for _, d := range dels {
		k := answerKey(q, d)
		if !got[k] {
			t.Fatalf("trial %d: del %v not in old answers", trial, d)
		}
		delete(got, k)
	}
	for _, a := range adds {
		k := answerKey(q, a)
		if got[k] {
			t.Fatalf("trial %d: add %v already present", trial, a)
		}
		got[k] = true
	}
	if len(got) != len(curSet) {
		t.Fatalf("trial %d: merged %d answers, want %d", trial, len(got), len(curSet))
	}
	for k := range curSet {
		if !got[k] {
			t.Fatalf("trial %d: merged set missing %v", trial, k)
		}
	}
}

// chainIndex is a reference Index over an instance, built afresh per
// column: each value's rows chained in ascending position order.
type chainIndex struct{ in *database.Instance }

type chainColumn struct {
	first map[values.Value]int32
	n     map[values.Value]int
	next  []int32
}

func (x chainIndex) Column(rel string, col int) Column {
	r := x.in.Relation(rel)
	if r == nil || col >= r.Arity() {
		return nil
	}
	c := &chainColumn{first: map[values.Value]int32{}, n: map[values.Value]int{}, next: make([]int32, r.Len())}
	for p := r.Len() - 1; p >= 0; p-- {
		v := r.Tuple(p)[col]
		c.next[p] = -1
		if f, ok := c.first[v]; ok {
			c.next[p] = f
		}
		c.first[v] = int32(p)
		c.n[v]++
	}
	return c
}

func (c *chainColumn) Lookup(v values.Value) (int32, int) {
	if f, ok := c.first[v]; ok {
		return f, c.n[v]
	}
	return -1, 0
}

func (c *chainColumn) Next(p int32) int32 { return c.next[p] }

// TestCollectSpanReset: an old WAL's reset marker, which replay applies
// as nothing, adds nothing to a span; the rows beside it still do.
func TestCollectSpanReset(t *testing.T) {
	batches := []Batch{
		{Seq: 2, Muts: []Mutation{{Op: OpReset, Rel: "R"}}},
		{Seq: 3, Muts: []Mutation{{Op: OpInsert, Rel: "R", Arity: 1, Rows: []values.Value{7}}}},
	}
	sp := CollectSpan(batches, map[string]bool{"R": true})
	if r := sp.Changed["R"]; sp.Size() != 1 || r.Tuple(0)[0] != 7 || len(sp.Deleted) != 0 {
		t.Fatalf("span over a reset and one insert: changed %v, deleted %v", sp.Changed, sp.Deleted)
	}
}

func TestHasAnswer(t *testing.T) {
	q := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	in := database.NewInstance()
	in.AddRow("R", 1, 2)
	in.AddRow("S", 2, 3)
	a := make(order.Answer, q.NumVars())
	x, _ := q.VarByName("x")
	z, _ := q.VarByName("z")
	a[x], a[z] = 1, 3
	if !HasAnswer(q, in, a) {
		t.Fatal("(1, 3) should be an answer")
	}
	a[z] = 4
	if HasAnswer(q, in, a) {
		t.Fatal("(1, 4) should not be an answer")
	}
}
