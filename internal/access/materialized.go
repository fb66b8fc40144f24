package access

import (
	"sort"

	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// rowArray is the representation Sum and Materialized share: Q(I) as an
// array of answers in rank order, which it remembers the order of. A
// SUM order (bySum) sorts by ascending weight and keeps each row's
// weight beside it; a lex order sorts by the requested — possibly
// partial — order. Either way ties fall to ascending head values, so
// the realized order is total. Access is O(1) and Rank one O(log n)
// binary search.
type rowArray struct {
	// Query is the query whose answers are accessed (the original one,
	// before any FD extension).
	Query *cq.Query
	// Weights is the SUM order of SUM-sorted rows (zero for lex rows).
	Weights order.Sum

	bySum   bool
	lex     order.Lex
	answers []order.Answer
	weights []float64 // per-row weights; SUM-sorted rows only
	project func(order.Answer) order.Answer
}

// Materialized is the fallback direct-access structure for (query, order)
// pairs on the intractable side of the dichotomies: it materializes and
// sorts the full answer set. Construction costs Θ(|Q(I)|) time and space
// — which the paper proves cannot be avoided up to polylogarithmic
// factors for these inputs — and each access costs O(1).
//
// It exists so that applications can degrade gracefully: use
// BuildLex/BuildSum when the classification allows, and fall back to
// Materialized (accepting the blow-up) otherwise, as discussed in the
// paper's "Applicability" note (§1) for reductions from harder classes.
type Materialized struct{ rowArray }

// BuildMaterializedLex materializes Q(I) sorted by the given order
// (completed deterministically by ascending head components).
func BuildMaterializedLex(q *cq.Query, in *database.Instance, l order.Lex) *Materialized {
	return &Materialized{rowArray{Query: q, lex: l, answers: baseline.SortedByLex(q, in, l)}}
}

// BuildMaterializedSum materializes Q(I) sorted by total weight.
func BuildMaterializedSum(q *cq.Query, in *database.Instance, w order.Sum) *Materialized {
	m := &Materialized{rowArray{Query: q, Weights: w, bySum: true, answers: baseline.SortedBySum(q, in, w)}}
	m.weights = make([]float64, len(m.answers))
	for i, a := range m.answers {
		m.weights[i] = w.AnswerWeight(q, a)
	}
	return m
}

// Total returns |Q(I)|.
func (r *rowArray) Total() int64 { return int64(len(r.answers)) }

// Head returns the head variables of Query.
func (r *rowArray) Head() []cq.VarID { return r.Query.Head }

// Access returns the k-th answer in O(1).
func (r *rowArray) Access(k int64) (order.Answer, error) {
	if k < 0 || k >= int64(len(r.answers)) {
		return nil, ErrOutOfBound
	}
	if r.project != nil {
		return r.project(r.answers[k]), nil
	}
	return r.answers[k], nil
}

// GetBuf returns nil: row arrays probe without scratch.
func (r *rowArray) GetBuf() *LexBuf { return nil }

// PutBuf is a no-op.
func (r *rowArray) PutBuf(*LexBuf) {}

// AccessInto is Access; the answer is the structure's own storage.
func (r *rowArray) AccessInto(_ *LexBuf, k int64) (order.Answer, error) { return r.Access(k) }

// AppendTuple appends the head projection of the k-th answer to dst.
func (r *rowArray) AppendTuple(dst []values.Value, k int64) ([]values.Value, error) {
	a, err := r.Access(k)
	if err != nil {
		return dst, err
	}
	return appendHead(dst, r.Query.Head, a), nil
}

// AppendRange appends the head projections of answers k0 ≤ k < k1 to
// dst.
func (r *rowArray) AppendRange(dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if k0 < 0 || k1 < k0 || k1 > r.Total() {
		return dst, ErrOutOfBound
	}
	for k := k0; k < k1; k++ {
		var err error
		if dst, err = r.AppendTuple(dst, k); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// WeightAt returns the weight of the k-th answer (0 under a lex order).
func (r *rowArray) WeightAt(k int64) (float64, error) {
	if k < 0 || k >= int64(len(r.answers)) {
		return 0, ErrOutOfBound
	}
	if !r.bySum {
		return 0, nil
	}
	return r.weights[k], nil
}

// Compare is the realized total order: weight or the requested lex
// order, then ascending head values.
func (r *rowArray) Compare(a, b order.Answer) int {
	if r.bySum {
		return CompareSumTotal(r.Query, r.Weights, a, b)
	}
	return CompareLexTotal(r.Query, r.lex, a, b)
}

// cmpRow compares row i with a tuple of weight wa in the realized
// order, reading the row's stored weight instead of recomputing it.
func (r *rowArray) cmpRow(i int, a order.Answer, wa float64) int {
	if !r.bySum {
		return CompareLexTotal(r.Query, r.lex, r.answers[i], a)
	}
	if wi := r.weights[i]; wi != wa {
		if wi < wa {
			return -1
		}
		return 1
	}
	return compareHead(r.Query, r.answers[i], a)
}

// Rank returns the number of answers strictly preceding the given tuple
// in the realized order, and whether the tuple is itself an answer. The
// tuple must assign every head variable of Query; it need not be an
// answer. Runs in O(log n).
func (r *rowArray) Rank(a order.Answer) (int64, bool) {
	var wa float64
	if r.bySum {
		wa = r.Weights.AnswerWeight(r.Query, a)
	}
	lo := sort.Search(len(r.answers), func(i int) bool { return r.cmpRow(i, a, wa) >= 0 })
	return int64(lo), lo < len(r.answers) && r.cmpRow(lo, a, wa) == 0
}
