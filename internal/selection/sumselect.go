package selection

import (
	"fmt"
	"math"
	"sort"

	"rankedaccess/internal/checked"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/reduce"
	"rankedaccess/internal/tupleidx"
)

// SelectSum returns the k-th answer (0-based) of q over in by increasing
// total weight, in O(n log n) time (Theorem 7.3; under unary FDs
// Theorem 8.10, on the FD-extension — fds may be nil). Applicable iff
// the extension is free-connex with at most two free-maximal
// hyperedges. Ties between equal-weight answers are broken by an
// internal deterministic order (bucket, then side positions), not
// necessarily by answer values.
func SelectSum(q *cq.Query, in *database.Instance, w order.Sum, fds fd.Set, k int64) (order.Answer, error) {
	verdict, wfd := classify.SelectionSum(q, fds)
	if !verdict.Tractable {
		return nil, &IntractableError{Verdict: verdict}
	}
	iplus, err := extendInstance(q, in, fds, wfd.Ext)
	if err != nil {
		return nil, err
	}
	a, err := selectSumChecked(wfd.Ext.Query, iplus, w, k)
	if err != nil {
		return nil, err
	}
	return fd.ProjectAnswer(q, a), nil
}

func selectSumChecked(q *cq.Query, in *database.Instance, w order.Sum, k int64) (order.Answer, error) {
	if k < 0 {
		return nil, ErrOutOfBound
	}
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		return nil, err
	}
	if q.IsBoolean() {
		if err := reduceNodes(full.Nodes, full.Origin); err != nil {
			return nil, err
		}
		for _, n := range full.Nodes {
			if n.Rel.Len() == 0 {
				return nil, ErrOutOfBound
			}
		}
		if k != 0 {
			return nil, ErrOutOfBound
		}
		return make(order.Answer, q.NumVars()), nil
	}
	if err := reduceNodes(full.Nodes, full.Origin); err != nil {
		return nil, err
	}
	c := reduce.Contract(full, w)
	var ans order.Answer
	switch len(c.Full.Nodes) {
	case 1:
		ans, err = selectSingle(c, k)
	case 2:
		ans, err = selectMatrix(c, k)
	default:
		return nil, fmt.Errorf("selection: internal: contraction left %d atoms for a query classified fmh ≤ 2",
			len(c.Full.Nodes))
	}
	if err != nil {
		return nil, err
	}
	return c.Unpack(ans), nil
}

// reduceNodes runs a Yannakakis full reduction over the nodes' join tree.
func reduceNodes(nodes []*reduce.Node, origin *cq.Query) error {
	f := &reduce.Full{Origin: origin, Nodes: nodes}
	tree, err := reduce.BuildTree(f)
	if err != nil {
		return err
	}
	tree.Yannakakis()
	return nil
}

// selectSingle handles mh = 1 (Lemma 7.8): weighted selection over the
// tuples of the single relation in O(n).
func selectSingle(c *reduce.Contraction, k int64) (order.Answer, error) {
	n := c.Full.Nodes[0]
	total := int64(n.Rel.Len())
	if k >= total {
		return nil, ErrOutOfBound
	}
	ws := tupleWeights(n, c.Weights, nil)
	lambda, ok := Nth(ws, k)
	if !ok {
		return nil, ErrOutOfBound
	}
	// Deterministic tie-break: tuples with weight λ in storage order.
	var before int64
	for _, x := range ws {
		if x < lambda {
			before++
		}
	}
	j := k - before
	for i, x := range ws {
		if x == lambda {
			if j == 0 {
				return nodeAnswer(c.Full.Origin, n, i, nil, -1), nil
			}
			j--
		}
	}
	return nil, fmt.Errorf("selection: internal: tie scan exhausted")
}

// tupleWeights sums the per-variable weights of each tuple; variables in
// skip (a bitset) are excluded (used to avoid double-counting shared
// variables on the B side of the two-atom case).
func tupleWeights(n *reduce.Node, w order.Sum, skipVars []cq.VarID) []float64 {
	skip := uint64(0)
	for _, v := range skipVars {
		skip |= 1 << uint(v)
	}
	out := make([]float64, n.Rel.Len())
	for i := range out {
		t := n.Rel.Tuple(i)
		total := 0.0
		for col, v := range n.Vars {
			if skip&(1<<uint(v)) != 0 {
				continue
			}
			total += w.VarWeight(v, t[col])
		}
		out[i] = total
	}
	return out
}

// nodeAnswer assembles an answer from a tuple of node a and optionally a
// tuple of node b (bIdx < 0 for none).
func nodeAnswer(q *cq.Query, a *reduce.Node, aIdx int, b *reduce.Node, bIdx int) order.Answer {
	ans := make(order.Answer, q.NumVars())
	t := a.Rel.Tuple(aIdx)
	for col, v := range a.Vars {
		ans[v] = t[col]
	}
	if b != nil && bIdx >= 0 {
		t := b.Rel.Tuple(bIdx)
		for col, v := range b.Vars {
			ans[v] = t[col]
		}
	}
	return ans
}

// side is one side of a bucket: tuple indices sorted by weight.
type side struct {
	w   []float64
	idx []int
}

// selectMatrix handles mh = 2 (Lemma 7.10): bucket the two relations by
// their shared variables, view each bucket as a sorted matrix of pairwise
// weight sums, and select the k-th smallest sum across the union of
// matrices. The search over the sum value is an exact bisection on the
// monotone 64-bit integer encoding of float64 (≤ 64 counting passes, each
// O(n)), followed by an O(n log n) tie walk to materialize the answer.
func selectMatrix(c *reduce.Contraction, k int64) (order.Answer, error) {
	q := c.Full.Origin
	A, B := c.Full.Nodes[0], c.Full.Nodes[1]
	// Shared variables.
	var shared []cq.VarID
	for _, v := range A.Vars {
		if B.Col(v) >= 0 {
			shared = append(shared, v)
		}
	}
	// Consistency: semijoin both ways on the shared variables.
	aCols := make([]int, len(shared))
	bCols := make([]int, len(shared))
	for i, v := range shared {
		aCols[i] = A.Col(v)
		bCols[i] = B.Col(v)
	}
	A = &reduce.Node{Vars: A.Vars, Rel: A.Rel.Semijoin(aCols, B.Rel, bCols)}
	B = &reduce.Node{Vars: B.Vars, Rel: B.Rel.Semijoin(bCols, A.Rel, aCols)}

	wA := tupleWeights(A, c.Weights, nil)
	wB := tupleWeights(B, c.Weights, shared) // shared variables counted on the A side

	// Bucket by shared-variable values: bucket id is the key's id in
	// keys, in order of first appearance on the A side.
	keys := tupleidx.New(len(shared), A.Rel.Len())
	var sidesA, sidesB []side
	for i := 0; i < A.Rel.Len(); i++ {
		id, added := keys.InsertCols(A.Rel.Tuple(i), aCols)
		if added {
			sidesA, sidesB = append(sidesA, side{}), append(sidesB, side{})
		}
		s := &sidesA[id]
		s.w = append(s.w, wA[i])
		s.idx = append(s.idx, i)
	}
	for i := 0; i < B.Rel.Len(); i++ {
		if id, ok := keys.LookupCols(B.Rel.Tuple(i), bCols); ok {
			s := &sidesB[id]
			s.w = append(s.w, wB[i])
			s.idx = append(s.idx, i)
		}
	}
	type bucket struct{ a, b *side }
	var bs []bucket
	total := checked.NewCounter(0)
	for id := range sidesA {
		a, b := &sidesA[id], &sidesB[id]
		if len(a.w) == 0 || len(b.w) == 0 {
			continue
		}
		sortSide(a)
		sortSide(b)
		prod, err := checked.Mul(int64(len(a.w)), int64(len(b.w)))
		if err != nil {
			return nil, fmt.Errorf("selection: %w", err)
		}
		total.Add(prod)
		bs = append(bs, bucket{a: a, b: b})
	}
	if err := total.Err(); err != nil {
		return nil, fmt.Errorf("selection: %w", err)
	}
	if k >= total.Value() {
		return nil, ErrOutOfBound
	}

	// count(λ): pairs with sum ≤ λ (strict=false) or < λ (strict=true),
	// two-pointer staircase per bucket. Strict counting avoids ULP
	// predecessor games, which break at +0.0 vs -0.0 (they encode
	// differently but compare equal).
	count := func(lambda float64, strict bool) int64 {
		var cnt int64
		for _, bu := range bs {
			j := len(bu.b.w)
			for i := 0; i < len(bu.a.w); i++ {
				for j > 0 {
					s := bu.a.w[i] + bu.b.w[j-1]
					if s > lambda || (strict && s == lambda) {
						j--
					} else {
						break
					}
				}
				if j == 0 {
					break
				}
				cnt += int64(j)
			}
		}
		return cnt
	}
	countLE := func(lambda float64) int64 { return count(lambda, false) }

	// Bisect the float64 sum space for the smallest λ with
	// countLE(λ) ≥ k+1; λ* is then the weight of the k-th answer.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, bu := range bs {
		if s := bu.a.w[0] + bu.b.w[0]; s < lo {
			lo = s
		}
		if s := bu.a.w[len(bu.a.w)-1] + bu.b.w[len(bu.b.w)-1]; s > hi {
			hi = s
		}
	}
	eLo, eHi := encodeF(lo), encodeF(hi)
	for eLo < eHi {
		mid := eLo + (eHi-eLo)/2
		if countLE(decodeF(mid)) >= k+1 {
			eHi = mid
		} else {
			eLo = mid + 1
		}
	}
	lambda := decodeF(eLo)

	// Rank of the first answer with weight λ*: strict count below λ*.
	before := count(lambda, true)
	j := k - before

	// Walk ties in deterministic (bucket, a-position, b-range) order.
	for _, bu := range bs {
		for i := 0; i < len(bu.a.w); i++ {
			wa := bu.a.w[i]
			loJ := sort.Search(len(bu.b.w), func(x int) bool { return wa+bu.b.w[x] >= lambda })
			hiJ := sort.Search(len(bu.b.w), func(x int) bool { return wa+bu.b.w[x] > lambda })
			cnt := int64(hiJ - loJ)
			if cnt == 0 {
				continue
			}
			if j < cnt {
				return nodeAnswer(q, A, bu.a.idx[i], B, bu.b.idx[loJ+int(j)]), nil
			}
			j -= cnt
		}
	}
	return nil, fmt.Errorf("selection: internal: tie walk exhausted (λ=%v, residual %d)", lambda, j)
}

func sortSide(s *side) {
	sort.Sort(bySideWeight{s})
}

type bySideWeight struct{ s *side }

func (b bySideWeight) Len() int { return len(b.s.w) }
func (b bySideWeight) Less(i, j int) bool {
	if b.s.w[i] != b.s.w[j] {
		return b.s.w[i] < b.s.w[j]
	}
	return b.s.idx[i] < b.s.idx[j]
}
func (b bySideWeight) Swap(i, j int) {
	b.s.w[i], b.s.w[j] = b.s.w[j], b.s.w[i]
	b.s.idx[i], b.s.idx[j] = b.s.idx[j], b.s.idx[i]
}

// encodeF maps float64 to uint64 monotonically (total order, no NaNs).
func encodeF(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 == 1 {
		return ^b
	}
	return b | (1 << 63)
}

// decodeF inverts encodeF.
func decodeF(u uint64) float64 {
	if u>>63 == 1 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}
