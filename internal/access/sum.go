package access

import (
	"sort"

	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/hypergraph"
	"rankedaccess/internal/order"
	"rankedaccess/internal/reduce"
	"rankedaccess/internal/values"
)

// Sum is the ⟨n log n, 1⟩ direct-access structure by a SUM order for the
// tractable class of Theorem 5.1 (acyclic queries with an atom containing
// all free variables, equivalently α_free ≤ 1): the answer set fits in a
// single reduced relation, so it is materialized, weighted, and sorted.
type Sum struct{ rowArray }

// BuildSum constructs the structure, failing with *IntractableError when
// q is outside the tractable class of Theorem 5.1.
func BuildSum(q *cq.Query, in *database.Instance, w order.Sum) (*Sum, error) {
	if v, _ := classify.DirectAccessSum(q, nil); !v.Tractable {
		return nil, &IntractableError{Verdict: v}
	}
	return buildSum(q, in, w)
}

// BuildSumFD is the Theorem 8.9 variant: the criterion and the structure
// apply to the FD-extension over the extended instance; the promoted free
// variables weigh zero (Lemma 8.5), so answer weights are unchanged.
// Without FDs it is BuildSum.
func BuildSumFD(q *cq.Query, in *database.Instance, w order.Sum, fds fd.Set) (*Sum, error) {
	if len(fds) == 0 {
		return BuildSum(q, in, w)
	}
	verdict, wfd := classify.DirectAccessSum(q, fds)
	if !verdict.Tractable {
		return nil, &IntractableError{Verdict: verdict}
	}
	if err := fds.Check(q, in); err != nil {
		return nil, err
	}
	iplus, err := wfd.Ext.ExtendInstance(q, in)
	if err != nil {
		return nil, err
	}
	s, err := buildSum(wfd.Ext.Query, iplus, w)
	if err != nil {
		return nil, err
	}
	orig := q
	s.Query = orig
	s.project = func(a order.Answer) order.Answer { return fd.ProjectAnswer(orig, a) }
	return s, nil
}

func buildSum(q *cq.Query, in *database.Instance, w order.Sum) (*Sum, error) {
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		return nil, err
	}
	tree, err := reduce.BuildTree(full)
	if err != nil {
		return nil, err
	}
	tree.Yannakakis()

	s := &Sum{rowArray{Query: q, Weights: w, bySum: true}}
	if q.IsBoolean() {
		if booleanTrue(full) {
			s.answers = []order.Answer{make(order.Answer, q.NumVars())}
			s.weights = []float64{0}
		}
		return s, nil
	}

	// Find the node covering all free variables (guaranteed by the
	// tractability criterion).
	free := hypergraph.VSet(q.Free())
	var big *reduce.Node
	for _, n := range full.Nodes {
		if hypergraph.Subset(free, n.VarSet()) {
			big = n
			break
		}
	}
	if big == nil {
		// Unreachable given the classification; keep a defensive error.
		v, _ := classify.DirectAccessSum(q, nil)
		return nil, &IntractableError{Verdict: v}
	}
	// After the full reduction every tuple of big participates in an
	// answer, and big's variables are exactly the free variables, so its
	// tuples are the answers. All answers share one flat backing array
	// (one allocation instead of one per answer).
	n := big.Rel.Len()
	nv := q.NumVars()
	backing := make([]values.Value, n*nv)
	s.answers = make([]order.Answer, 0, n)
	s.weights = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := big.Rel.Tuple(i)
		a := backing[i*nv : (i+1)*nv : (i+1)*nv]
		for c, v := range big.Vars {
			a[v] = t[c]
		}
		s.answers = append(s.answers, a)
		s.weights = append(s.weights, w.AnswerWeight(q, a))
	}
	// Sort by weight, ties by ascending head values (deterministic).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return s.cmpRow(idx[i], s.answers[idx[j]], s.weights[idx[j]]) < 0
	})
	ans := make([]order.Answer, n)
	ws := make([]float64, n)
	for i, k := range idx {
		ans[i], ws[i] = s.answers[k], s.weights[k]
	}
	s.answers, s.weights = ans, ws
	return s, nil
}

// WeightLookup returns the first index whose answer has exactly weight
// λ, or -1 (Definition 5.5), via binary search in O(log n).
func (s *Sum) WeightLookup(lambda float64) int64 {
	i := sort.SearchFloat64s(s.weights, lambda)
	if i < len(s.weights) && s.weights[i] == lambda {
		return int64(i)
	}
	return -1
}
