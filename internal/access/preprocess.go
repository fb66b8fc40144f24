package access

import (
	"context"
	"fmt"

	"rankedaccess/internal/checked"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/par"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// semijoinReduce removes dangling tuples across the layered tree: a
// bottom-up pass filtering parents by children, then a top-down pass
// filtering children by parents (Yannakakis). Shared variables of a
// child and its parent are exactly the child's key variables.
func (lb *lexBuild) semijoinReduce() {
	la := lb.Lex
	f := len(la.layers)
	// Bottom-up: layers in decreasing index order have children after
	// parents, so iterating i from f-1 down to 0 and filtering parent by
	// child visits children first.
	for i := f - 1; i >= 1; i-- {
		p := la.layers[i].parent
		pCols, cCols := la.sharedCols(p, i)
		lb.rels[p] = lb.rels[p].Semijoin(pCols, lb.rels[i], cCols)
	}
	// Top-down.
	for i := 1; i < f; i++ {
		p := la.layers[i].parent
		pCols, cCols := la.sharedCols(p, i)
		lb.rels[i] = lb.rels[i].Semijoin(cCols, lb.rels[p], pCols)
	}
}

// sharedCols returns aligned column indices of the child's key variables
// in the parent layer relation and in the child layer relation.
func (la *Lex) sharedCols(parent, child int) (pCols, cCols []int) {
	pVars := la.layerVars(parent)
	pos := make(map[cq.VarID]int, len(pVars))
	for c, u := range pVars {
		pos[u] = c
	}
	for c, u := range la.layers[child].keyVars {
		pCols = append(pCols, pos[u])
		cCols = append(cCols, c)
	}
	return
}

// computeWeights bucketizes every layer and runs the subtree-count
// dynamic program of §3.1: the weight of a tuple is the product over the
// layer's children of the weight of the child bucket selected by the
// tuple; starts are prefix sums inside each bucket. The total count is
// the weight of the root bucket.
func (lb *lexBuild) computeWeights(ctx context.Context) error {
	la := lb.Lex
	f := len(la.layers)
	if f == 0 {
		return nil
	}
	// bucketize(i) writes only layer i and reads its children's finished
	// buckets, so layers at the same height from the leaves are
	// independent: schedule them as parallel waves, leaves first. Parents
	// always precede children in index order, so a single descending pass
	// computes heights.
	height := make([]int, f)
	maxH := 0
	for i := f - 1; i >= 0; i-- {
		h := 0
		for _, c := range la.layers[i].children {
			if height[c]+1 > h {
				h = height[c] + 1
			}
		}
		height[i] = h
		if h > maxH {
			maxH = h
		}
	}
	waves := make([][]int, maxH+1)
	for i, h := range height {
		waves[h] = append(waves[h], i)
	}
	lb.bucketOf = make([]*tupleidx.Index, f)
	for _, wave := range waves {
		wave := wave
		// The wave boundary is the cancellation point: a deadline-hit
		// build stops between layer waves, never mid-bucketize.
		if err := par.DoErrCtx(ctx, len(wave), func(j int) error {
			return lb.bucketize(wave[j])
		}); err != nil {
			return err
		}
	}
	root := &la.layers[0]
	switch len(root.bucketWeight) {
	case 0:
		la.total = 0
	case 1:
		la.total = root.bucketWeight[0]
	default:
		return fmt.Errorf("access: internal: root layer has %d buckets", len(root.bucketWeight))
	}
	return nil
}

// bucketize groups layer i's tuples into buckets by key value, sorts each
// bucket by the layer variable under the layer direction, resolves the
// child buckets every tuple selects into childOf and computes starts from
// the tuples' weights (children of i are already bucketized).
//
// Grouping is columnar: one radix sort (tupleidx.SortRows) orders the
// layer relation's flat storage in place by (key columns ascending,
// layer value under the direction), and buckets are the equal-key runs.
// No per-row key is materialized; the only per-layer allocations are the
// sort's scratch and the output arrays themselves. A layer relation is a
// set — buildTree deduplicates what a projection can repeat — and two
// equal adjacent rows are refused as an internal error.
func (lb *lexBuild) bucketize(i int) error {
	ly := &lb.layers[i]
	rel := lb.rels[i]
	nk := len(ly.keyVars)
	n := rel.Len()
	tupleidx.SortRows(rel.Data(), nk+1, ly.dir == order.Desc)

	index := tupleidx.New(nk, n)
	ly.vals = make([]values.Value, 0, n)
	ly.starts = make([]int64, 0, n)
	nc := len(ly.children)
	widest := 0
	if nc > 0 {
		ly.childOf = make([]int32, n*nc)
		for _, c := range ly.children {
			widest = max(widest, len(lb.keyFrom[c]))
		}
	}
	scratch := make([]values.Value, widest)

	for t := 0; t < n; {
		key := rel.Tuple(t)[:nk]
		end := t + 1
	run:
		for ; end < n; end++ {
			next := rel.Tuple(end)
			for c := 0; c < nk; c++ {
				if next[c] != key[c] {
					break run
				}
			}
		}
		b, added := index.Insert(key)
		if !added || b != len(ly.bucketStart) {
			return fmt.Errorf("access: internal: duplicate bucket key in sorted layer %d", i)
		}
		first := len(ly.vals)
		ly.bucketStart = append(ly.bucketStart, first)
		bucketSum := checked.NewCounter(0)
		for ; t < end; t++ {
			tu := rel.Tuple(t)
			if t > first && tu[nk] == ly.vals[t-1] {
				return fmt.Errorf("access: internal: duplicate tuple in layer %d", i)
			}
			sel := ly.childOf[t*nc : t*nc+nc]
			if c := lb.selectChildren(i, tu[:nk], tu[nk], scratch, sel); c >= 0 {
				return fmt.Errorf("access: internal: missing child bucket after reduction (layer %d -> %d)", i, c)
			}
			w, err := lb.tupleWeight(i, sel)
			if err != nil {
				return fmt.Errorf("access: counting answers: %w", err)
			}
			ly.starts = append(ly.starts, bucketSum.Value())
			ly.vals = append(ly.vals, tu[nk])
			bucketSum.Add(w)
		}
		if err := bucketSum.Err(); err != nil {
			return fmt.Errorf("access: counting answers: %w", err)
		}
		ly.bucketWeight = append(ly.bucketWeight, bucketSum.Value())
	}
	ly.bucketStart = append(ly.bucketStart, n)
	lb.bucketOf[i] = index
	return nil
}

// selectChildren writes into sel, one entry per child of layer i in
// children order, the bucket that a tuple of layer i (key values plus
// the layer-variable value) selects in that child layer — the tuple's
// stretch of childOf. Each child key is gathered into scratch by the
// child's keyFrom plan and looked up in its bucket index, allocating
// nothing. It returns the first child layer holding no bucket for the
// tuple, or -1. scratch must have capacity for the widest key of any
// child layer.
func (lb *lexBuild) selectChildren(i int, key []values.Value, val values.Value, scratch []values.Value, sel []int32) int {
	for j, c := range lb.layers[i].children {
		probe := scratch[:len(lb.keyFrom[c])]
		for x, src := range lb.keyFrom[c] {
			if src < 0 {
				probe[x] = val
			} else {
				probe[x] = key[src]
			}
		}
		b, ok := lb.bucketOf[c].Lookup(probe)
		if !ok {
			return c
		}
		sel[j] = int32(b)
	}
	return -1
}

// tupleWeight multiplies the weights of the child buckets sel selects
// (a tuple of layer i's stretch of childOf): the tuple's weight.
func (la *Lex) tupleWeight(i int, sel []int32) (int64, error) {
	w := checked.NewCounter(1)
	for j, c := range la.layers[i].children {
		w.Mul(la.layers[c].bucketWeight[sel[j]])
	}
	return w.Value(), w.Err()
}
