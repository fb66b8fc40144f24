package access

import (
	"fmt"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// This file exports the built structures' flat arrays for snapshot
// persistence and reconstructs structures from persisted (possibly
// memory-mapped) arrays without re-running preprocessing: a warm start
// points every layer's columns at the mapped file and is then
// probe-ready. Restore resolves nothing and hashes nothing — a layer's
// parts are exactly what the probes read.
//
// The FromParts constructors validate what the probe algorithms rely on
// for memory safety, termination and agreement between Access and Rank:
// shapes, index bounds, zero start offsets, strictly positive weights,
// sorted buckets, child buckets in range whose weights multiply to the
// tuple's weight and, for row arrays, the rank order itself (see
// rowsFromParts). That the values are the ones preprocessing computed
// is the snapshot checksums' job.

// LexLayerParts is the flat state of one layer of a built Lex: the
// columns of layer, less children, which the parent pointers imply.
type LexLayerParts struct {
	Var     cq.VarID
	Desc    bool
	Parent  int
	KeyVars []cq.VarID

	Vals         []values.Value
	Starts       []int64
	ChildOf      []int32
	BucketStart  []int // one entry per bucket, then the sentinel len(Vals)
	BucketWeight []int64
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

// Parts exports the structure's flat arrays (views, not copies; the
// caller must not mutate them). ok is false when the structure carries
// FD-extension closures, which cannot be persisted — callers should
// rebuild such structures from their spec instead.
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
		p.Layers[i] = LexLayerParts{
			Var: ly.v, Desc: ly.dir == order.Desc, Parent: ly.parent, KeyVars: ly.keyVars,
			Vals: ly.vals, Starts: ly.starts, ChildOf: ly.childOf,
			BucketStart: ly.bucketStart, BucketWeight: ly.bucketWeight,
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
	// Recompute children from the parent pointers, as the builder does.
	for i := 1; i < f; i++ {
		parent := &la.layers[la.layers[i].parent]
		parent.children = append(parent.children, i)
		if _, err := keyFrom(parent, &la.layers[i]); err != nil {
			return nil, fmt.Errorf("access: layer %d: %w", i, err)
		}
	}
	for i := range la.layers {
		if err := la.checkChildOf(i); err != nil {
			return nil, err
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

// checkChildOf holds layer i's childOf to what bucketize writes: one
// entry per tuple per child, each a bucket of that child, whose weights
// multiply to the tuple's weight (a leaf tuple weighs 1). A descent then
// ends on residual 0 for every rank below the total, and Rank finds the
// tuples Access chose.
func (la *Lex) checkChildOf(i int) error {
	ly := &la.layers[i]
	nc := len(ly.children)
	if len(ly.childOf) != len(ly.vals)*nc {
		return fmt.Errorf("access: layer %d: childOf holds %d entries for %d tuples × %d children", i, len(ly.childOf), len(ly.vals), nc)
	}
	for b := range ly.bucketWeight {
		for t := ly.bucketStart[b]; t < ly.bucketStart[b+1]; t++ {
			sel := ly.childOf[t*nc : t*nc+nc]
			for j, c := range ly.children {
				if n := len(la.layers[c].bucketWeight); sel[j] < 0 || int(sel[j]) >= n {
					return fmt.Errorf("access: layer %d: tuple %d selects bucket %d of child layer %d, which has %d", i, t, sel[j], c, n)
				}
			}
			w, err := la.tupleWeight(i, sel)
			if err != nil {
				return fmt.Errorf("access: layer %d: tuple %d: counting answers: %w", i, t, err)
			}
			if w != ly.weight(b, t) {
				return fmt.Errorf("access: layer %d: tuple %d weighs %d, its child buckets %d", i, t, ly.weight(b, t), w)
			}
		}
	}
	return nil
}

// layerFromParts validates and installs one layer. The checks mirror
// what bucketize guarantees: buckets tile [0, n) and end on the sentinel
// n, values strictly follow the layer direction inside a bucket, and
// starts rise strictly from 0 below the bucket weight — which is exactly
// what keeps the access descent's binary searches and divisions safe.
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
	n, nb := len(lp.Vals), len(lp.BucketWeight)
	if len(lp.Starts) != n {
		return fail("%d start offsets for %d tuples", len(lp.Starts), n)
	}
	if len(lp.BucketStart) != nb+1 {
		return fail("%d bucket starts for %d buckets", len(lp.BucketStart), nb)
	}
	if lp.BucketStart[0] != 0 || lp.BucketStart[nb] != n {
		return fail("bucket starts run from %d to %d, not over the %d tuples", lp.BucketStart[0], lp.BucketStart[nb], n)
	}
	for j := 0; j < nb; j++ {
		lo, hi := lp.BucketStart[j], lp.BucketStart[j+1]
		if hi <= lo || hi > n {
			return fail("bucket %d spans [%d, %d)", j, lo, hi)
		}
		if lp.Starts[lo] != 0 {
			return fail("start offset %d of tuple %d breaks the prefix sum", lp.Starts[lo], lo)
		}
		for t := lo + 1; t < hi; t++ {
			if lp.Starts[t] <= lp.Starts[t-1] {
				return fail("start offset %d of tuple %d breaks the prefix sum", lp.Starts[t], t)
			}
			if prev, v := lp.Vals[t-1], lp.Vals[t]; prev == v || (prev < v) == lp.Desc {
				return fail("value %d of tuple %d out of order in bucket %d", v, t, j)
			}
		}
		if lp.BucketWeight[j] <= lp.Starts[hi-1] {
			return fail("bucket %d weighs %d, its last tuple starts at %d", j, lp.BucketWeight[j], lp.Starts[hi-1])
		}
	}
	dir := order.Asc
	if lp.Desc {
		dir = order.Desc
	}
	*ly = layer{
		v: lp.Var, dir: dir, keyVars: lp.KeyVars, parent: lp.Parent,
		vals: lp.Vals, starts: lp.Starts, childOf: lp.ChildOf,
		bucketStart: lp.BucketStart, bucketWeight: lp.BucketWeight,
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
