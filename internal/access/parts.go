package access

import (
	"fmt"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// This file exports the built structures' flat arrays for snapshot
// persistence and reconstructs structures from persisted (possibly
// memory-mapped) arrays without re-running preprocessing: a warm start
// points every layer's vals/starts/bucket columns — and the bucket
// index's key and table buffers — at the mapped file, resolves the
// child buckets every tuple selects (one index lookup per tuple per
// child) and is then probe-ready.
//
// The FromParts constructors validate what the probe algorithms rely on
// for memory safety, termination and agreement between Access and Rank:
// shapes, index bounds, zero start offsets, strictly positive weights,
// sorted buckets, a child bucket for every tuple whose weights multiply
// to the tuple's weight and, for row arrays, the rank order itself (see
// rowsFromParts). That the values are the ones preprocessing computed
// is the snapshot checksums' job.

// LexLayerParts is the flat state of one layer of a built Lex. Children,
// the child key-gather plans and the child buckets each tuple selects
// are not part of it: they are recomputed from Parent, KeyVars and the
// bucket index, exactly as the builder derived them. Weights is derived
// from Starts on export and checked against them on restore; the layer
// does not keep it.
type LexLayerParts struct {
	Var     cq.VarID
	Desc    bool
	Parent  int
	KeyVars []cq.VarID

	Vals    []values.Value
	Weights []int64
	Starts  []int64

	Buckets      int
	BucketStart  []int
	BucketEnd    []int
	BucketWeight []int64
	BucketKeys   []values.Value
	BucketTable  []int32
}

// LexParts is the flat state of a built Lex structure.
type LexParts struct {
	Completed order.Lex
	Total     int64
	NumVars   int
	Boolean   bool
	BoolTrue  bool
	Layers    []LexLayerParts
}

// Parts exports the structure's flat arrays (views, not copies, except
// the derived Weights; the caller must not mutate them). ok is false
// when the structure carries FD-extension closures, which cannot be
// persisted — callers should rebuild such structures from their spec
// instead.
func (la *Lex) Parts() (*LexParts, bool) {
	if la.project != nil || la.extend != nil {
		return nil, false
	}
	p := &LexParts{
		Completed: la.Completed,
		Total:     la.total,
		NumVars:   la.numVars,
		Boolean:   la.boolean,
		BoolTrue:  la.boolTrue,
		Layers:    make([]LexLayerParts, len(la.layers)),
	}
	for i := range la.layers {
		ly := &la.layers[i]
		weights := make([]int64, len(ly.vals))
		for b := range ly.bucketStart {
			for t := ly.bucketStart[b]; t < ly.bucketEnd[b]; t++ {
				weights[t] = ly.weight(b, t)
			}
		}
		p.Layers[i] = LexLayerParts{
			Var: ly.v, Desc: ly.dir == order.Desc, Parent: ly.parent, KeyVars: ly.keyVars,
			Vals: ly.vals, Weights: weights, Starts: ly.starts,
			Buckets: ly.bucketOf.Len(), BucketStart: ly.bucketStart, BucketEnd: ly.bucketEnd,
			BucketWeight: ly.bucketWeight, BucketKeys: ly.bucketOf.FlatKeys(), BucketTable: ly.bucketOf.Table(),
		}
	}
	return p, true
}

// LexFromParts reconstructs a Lex for q from exported parts. The part
// slices are aliased, so they may point into a mapped snapshot; the
// returned structure is immutable, as all built structures are.
func LexFromParts(q *cq.Query, p *LexParts) (*Lex, error) {
	if p.NumVars != q.NumVars() {
		return nil, fmt.Errorf("access: parts carry %d variables, query has %d", p.NumVars, q.NumVars())
	}
	la := &Lex{
		Query: q, Completed: p.Completed, total: p.Total, numVars: p.NumVars,
		boolean: p.Boolean, boolTrue: p.BoolTrue,
	}
	if p.Boolean != q.IsBoolean() {
		return nil, fmt.Errorf("access: parts are boolean: %v, the query is: %v", p.Boolean, q.IsBoolean())
	}
	if p.Boolean {
		if len(p.Layers) != 0 {
			return nil, fmt.Errorf("access: boolean structure with %d layers", len(p.Layers))
		}
		want := int64(0)
		if p.BoolTrue {
			want = 1
		}
		if p.Total != want {
			return nil, fmt.Errorf("access: boolean structure with total %d", p.Total)
		}
		return la, nil
	}
	f := len(p.Layers)
	if f == 0 || len(p.Completed.Entries) != f {
		return nil, fmt.Errorf("access: %d layers vs %d completed-order entries", f, len(p.Completed.Entries))
	}
	la.layers = make([]layer, f)
	seen := make([]bool, p.NumVars)
	for i := range p.Layers {
		if err := layerFromParts(&la.layers[i], i, &p.Layers[i], p.NumVars); err != nil {
			return nil, err
		}
		// One layer per completed-order position, as buildTree lays them
		// out: Compare and the descent realize the same order.
		ly, e := &la.layers[i], p.Completed.Entries[i]
		if ly.v != e.Var || ly.dir != e.Dir || seen[ly.v] {
			return nil, fmt.Errorf("access: layer %d does not realize completed-order entry %d", i, i)
		}
		seen[ly.v] = true
	}
	// Recompute children and the child key-gather plans from the parent
	// pointers, as the builder does.
	for i := 1; i < f; i++ {
		parent := &la.layers[la.layers[i].parent]
		parent.children = append(parent.children, i)
	}
	if err := la.planKeyGather(); err != nil {
		return nil, fmt.Errorf("access: %w", err)
	}
	// Resolve the child buckets every tuple selects, as bucketize does,
	// and hold each tuple's weight to their product: a descent then ends
	// on residual 0 for every rank below the total, and Rank finds the
	// tuples Access chose.
	scratch := make([]values.Value, la.maxKey)
	for i := range la.layers {
		ly := &la.layers[i]
		nc := len(ly.children)
		if nc == 0 {
			// A leaf tuple weighs 1, so a leaf bucket weighs its size.
			for b, w := range ly.bucketWeight {
				if n := ly.bucketEnd[b] - ly.bucketStart[b]; w != int64(n) {
					return nil, fmt.Errorf("access: layer %d: leaf bucket %d weighs %d, holds %d tuples", i, b, w, n)
				}
			}
			continue
		}
		ly.childOf = make([]int32, len(ly.vals)*nc)
		for b := range ly.bucketStart {
			key := ly.bucketOf.Key(b)
			for t := ly.bucketStart[b]; t < ly.bucketEnd[b]; t++ {
				sel := ly.childOf[t*nc : t*nc+nc]
				if c := la.selectChildren(i, key, ly.vals[t], scratch, sel); c >= 0 {
					return nil, fmt.Errorf("access: layer %d: tuple %d selects no bucket of child layer %d", i, t, c)
				}
				w, err := la.tupleWeight(i, sel)
				if err != nil {
					return nil, fmt.Errorf("access: layer %d: tuple %d: counting answers: %w", i, t, err)
				}
				if w != ly.weight(b, t) {
					return nil, fmt.Errorf("access: layer %d: tuple %d weighs %d, its child buckets %d", i, t, ly.weight(b, t), w)
				}
			}
		}
	}
	// The root must hold the whole count in a single bucket (or be empty
	// along with the answer set).
	root := &la.layers[0]
	switch len(root.bucketWeight) {
	case 0:
		if p.Total != 0 {
			return nil, fmt.Errorf("access: empty root layer with total %d", p.Total)
		}
	case 1:
		if root.bucketWeight[0] != p.Total {
			return nil, fmt.Errorf("access: root weight %d vs total %d", root.bucketWeight[0], p.Total)
		}
	default:
		return nil, fmt.Errorf("access: root layer has %d buckets", len(root.bucketWeight))
	}
	return la, nil
}

// layerFromParts validates and installs one layer. The checks mirror
// what bucketize guarantees: per-bucket ranges tile [0, n), values
// strictly follow the layer direction inside a bucket, starts begin at 0
// and advance by the persisted, strictly positive weights, and the
// bucket weight closes the sum — which is exactly what keeps the access
// descent's binary searches and divisions safe, and lets the layer drop
// the weights column: starts and bucket weights imply it.
func layerFromParts(ly *layer, i int, lp *LexLayerParts, numVars int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("access: layer %d: %s", i, fmt.Sprintf(format, args...))
	}
	if int(lp.Var) < 0 || int(lp.Var) >= numVars {
		return fail("variable %d out of range", lp.Var)
	}
	for _, u := range lp.KeyVars {
		if int(u) < 0 || int(u) >= numVars {
			return fail("key variable %d out of range", u)
		}
	}
	if (i == 0) != (lp.Parent == -1) || lp.Parent >= i || lp.Parent < -1 {
		return fail("bad parent %d", lp.Parent)
	}
	n := len(lp.Vals)
	if len(lp.Weights) != n || len(lp.Starts) != n {
		return fail("column lengths %d/%d/%d disagree", n, len(lp.Weights), len(lp.Starts))
	}
	b := lp.Buckets
	if len(lp.BucketStart) != b || len(lp.BucketEnd) != b || len(lp.BucketWeight) != b {
		return fail("bucket column lengths disagree")
	}
	idx, err := tupleidx.FromParts(len(lp.KeyVars), b, lp.BucketKeys, lp.BucketTable)
	if err != nil {
		return fail("%v", err)
	}
	prevEnd := 0
	for j := 0; j < b; j++ {
		lo, hi := lp.BucketStart[j], lp.BucketEnd[j]
		if lo != prevEnd || hi < lo || hi > n {
			return fail("bucket %d spans [%d, %d) outside the expected run", j, lo, hi)
		}
		prevEnd = hi
		if hi == lo {
			return fail("bucket %d is empty", j)
		}
		sum := int64(0)
		for t := lo; t < hi; t++ {
			if t > lo {
				if prev, v := lp.Vals[t-1], lp.Vals[t]; prev == v || (prev < v) == lp.Desc {
					return fail("value %d of tuple %d out of order in bucket %d", v, t, j)
				}
			}
			if lp.Starts[t] != sum {
				return fail("start offset %d of tuple %d breaks the prefix sum", lp.Starts[t], t)
			}
			if lp.Weights[t] <= 0 {
				return fail("non-positive weight %d of tuple %d", lp.Weights[t], t)
			}
			sum += lp.Weights[t]
			if sum < 0 {
				return fail("weight overflow in bucket %d", j)
			}
		}
		if lp.BucketWeight[j] != sum {
			return fail("bucket %d weight %d, tuples sum to %d", j, lp.BucketWeight[j], sum)
		}
	}
	if prevEnd != n {
		return fail("buckets cover %d of %d tuples", prevEnd, n)
	}
	dir := order.Asc
	if lp.Desc {
		dir = order.Desc
	}
	*ly = layer{
		v: lp.Var, dir: dir, keyVars: lp.KeyVars, parent: lp.Parent,
		vals: lp.Vals, starts: lp.Starts,
		bucketOf: idx, bucketStart: lp.BucketStart, bucketEnd: lp.BucketEnd,
		bucketWeight: lp.BucketWeight,
	}
	return nil
}

// RowParts is the flat state of a built Sum or Materialized structure:
// the answers in rank order, row-major at stride NumVars, plus the
// per-answer weights of a SUM order (nil for lex materializations).
type RowParts struct {
	NumVars int
	Flat    []values.Value
	Weights []float64
}

// Parts exports the structure's answers as one flat array (copied: the
// built answers alias construction-order backing). ok is false when the
// structure carries an FD projection closure.
func (r *rowArray) Parts() (*RowParts, bool) {
	if r.project != nil {
		return nil, false
	}
	nv := r.Query.NumVars()
	flat := make([]values.Value, 0, len(r.answers)*nv)
	for _, a := range r.answers {
		flat = append(flat, a...)
	}
	return &RowParts{NumVars: nv, Flat: flat, Weights: r.weights}, true
}

// SumFromParts reconstructs a Sum for q under the weight order w. The
// flat answer array is aliased and sliced per answer.
func SumFromParts(q *cq.Query, w order.Sum, p *RowParts) (*Sum, error) {
	r, err := rowsFromParts(rowArray{Query: q, Weights: w, bySum: true}, p)
	if err != nil {
		return nil, err
	}
	return &Sum{r}, nil
}

// MatFromParts reconstructs a Materialized for q, sorted by the SUM
// order w when bySum and by the lex order l otherwise.
func MatFromParts(q *cq.Query, l order.Lex, w order.Sum, bySum bool, p *RowParts) (*Materialized, error) {
	r, err := rowsFromParts(rowArray{Query: q, lex: l, Weights: w, bySum: bySum}, p)
	if err != nil {
		return nil, err
	}
	return &Materialized{r}, nil
}

// rowsFromParts installs persisted rows into r, which names their
// order, and verifies what Rank's binary search relies on: every stored
// weight is the row's weight and the rows strictly increase in the
// realized order. Checksums cannot vouch for that — a file written from
// rows in the wrong order has valid ones — and a structure serving such
// rows answers Rank and overlay probes silently wrong.
func rowsFromParts(r rowArray, p *RowParts) (rowArray, error) {
	var err error
	if r.answers, err = sliceAnswers(r.Query, p.NumVars, p.Flat); err != nil {
		return r, err
	}
	if r.bySum {
		if len(p.Weights) != len(r.answers) {
			return r, fmt.Errorf("access: %d weights for %d answers", len(p.Weights), len(r.answers))
		}
		r.weights = p.Weights
	}
	for i, a := range r.answers {
		var wa float64
		if r.bySum {
			if wa = r.Weights.AnswerWeight(r.Query, a); wa != r.weights[i] {
				return r, fmt.Errorf("access: stored weight %v of rank %d, its answer weighs %v", r.weights[i], i, wa)
			}
		}
		if i > 0 && r.cmpRow(i-1, a, wa) >= 0 {
			return r, fmt.Errorf("access: answers not in rank order at rank %d", i)
		}
	}
	return r, nil
}

// sliceAnswers carves a flat row-major answer array into per-answer
// views.
func sliceAnswers(q *cq.Query, numVars int, flat []values.Value) ([]order.Answer, error) {
	if numVars != q.NumVars() {
		return nil, fmt.Errorf("access: parts carry %d variables, query has %d", numVars, q.NumVars())
	}
	if numVars == 0 {
		if len(flat) != 0 {
			return nil, fmt.Errorf("access: %d flat values for a variable-free query", len(flat))
		}
		return nil, nil
	}
	if len(flat)%numVars != 0 {
		return nil, fmt.Errorf("access: %d flat values do not tile %d variables", len(flat), numVars)
	}
	n := len(flat) / numVars
	answers := make([]order.Answer, n)
	for i := 0; i < n; i++ {
		answers[i] = flat[i*numVars : (i+1)*numVars : (i+1)*numVars]
	}
	return answers, nil
}
