package access

import (
	"context"
	"fmt"
	"slices"

	"rankedaccess/internal/checked"
	"rankedaccess/internal/order"
	"rankedaccess/internal/par"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// computeWeights bucketizes every layer and runs the subtree-count
// dynamic program of §3.1: the weight of a tuple is the product over the
// layer's children of the weight of the child bucket selected by the
// tuple; starts are prefix sums inside each bucket. The total count is
// the weight of the root bucket.
//
// The pass also makes the layers globally consistent (Yannakakis), with
// no semijoin of its own: bucketize drops a tuple that selects a missing
// child bucket, which is the bottom-up half, and prune drops the buckets
// no parent tuple selects, which is the top-down half.
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
	la.prune()
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
// A tuple some child holds no bucket for joins with no answer: it is
// dropped, as the bottom-up semijoin would drop it, and a bucket left
// without tuples gets no id, so the parents' lookups of its key miss in
// turn. vals, starts and childOf are written at the kept tuple's
// position.
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

	// The index grows with the buckets, which are far fewer than the
	// tuples on a keyed layer.
	index := tupleidx.New(nk, 0)
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
		first := len(ly.vals)
		bucketSum := checked.NewCounter(0)
		for r := t; r < end; r++ {
			tu := rel.Tuple(r)
			if r > t && tu[nk] == rel.Tuple(r - 1)[nk] {
				return fmt.Errorf("access: internal: duplicate tuple in layer %d", i)
			}
			out := len(ly.vals)
			sel := ly.childOf[out*nc : out*nc+nc]
			if !lb.selectChildren(i, tu[:nk], tu[nk], scratch, sel) {
				continue
			}
			w, err := lb.tupleWeight(i, sel)
			if err != nil {
				return fmt.Errorf("access: counting answers: %w", err)
			}
			ly.starts = append(ly.starts, bucketSum.Value())
			ly.vals = append(ly.vals, tu[nk])
			bucketSum.Add(w)
		}
		t = end
		if len(ly.vals) == first {
			continue
		}
		if b, added := index.Insert(key); !added || b != len(ly.bucketStart) {
			return fmt.Errorf("access: internal: duplicate bucket key in sorted layer %d", i)
		}
		if err := bucketSum.Err(); err != nil {
			return fmt.Errorf("access: counting answers: %w", err)
		}
		ly.bucketStart = append(ly.bucketStart, first)
		ly.bucketWeight = append(ly.bucketWeight, bucketSum.Value())
	}
	ly.bucketStart = append(ly.bucketStart, len(ly.vals))
	ly.childOf = ly.childOf[:len(ly.vals)*nc]
	lb.bucketOf[i] = index
	return nil
}

// prune drops, layer by layer in index order (parents first), the
// buckets that no parent tuple selects: the top-down half of the
// reduction, after which every tuple of every layer takes part in some
// answer. A layer with such buckets is compacted in place, kept buckets
// in their order, so the ids, starts and weights are those a build over
// fully reduced relations assigns; the parent's childOf column is
// renumbered through the old→new bucket ids. Removing a bucket removes
// its tuples' selections too, so the drop cascades down the tree.
// Copying the kept buckets into arrays of the new size instead would
// free the dropped tail, but it measured slower range reads over the
// built structure.
func (la *Lex) prune() {
	for i := 1; i < len(la.layers); i++ {
		ly, p := &la.layers[i], &la.layers[la.layers[i].parent]
		j, pc := slices.Index(p.children, i), len(p.children)
		// newID[b] is bucket b's id after the pass plus one; 0 marks a
		// bucket no parent tuple selects.
		newID := make([]int32, len(ly.bucketWeight))
		for t := j; t < len(p.childOf); t += pc {
			newID[p.childOf[t]] = 1
		}
		if !slices.Contains(newID, 0) {
			continue
		}
		nc := len(ly.children)
		nb, nt := 0, 0
		for b := range newID {
			if newID[b] == 0 {
				continue
			}
			lo, hi := ly.bucketStart[b], ly.bucketStart[b+1]
			copy(ly.vals[nt:], ly.vals[lo:hi])
			copy(ly.starts[nt:], ly.starts[lo:hi])
			copy(ly.childOf[nt*nc:], ly.childOf[lo*nc:hi*nc])
			ly.bucketStart[nb] = nt
			ly.bucketWeight[nb] = ly.bucketWeight[b]
			nb++
			newID[b] = int32(nb)
			nt += hi - lo
		}
		ly.bucketStart[nb] = nt
		ly.bucketStart = ly.bucketStart[:nb+1]
		ly.bucketWeight = ly.bucketWeight[:nb]
		ly.vals, ly.starts, ly.childOf = ly.vals[:nt], ly.starts[:nt], ly.childOf[:nt*nc]
		for t := j; t < len(p.childOf); t += pc {
			p.childOf[t] = newID[p.childOf[t]] - 1
		}
	}
}

// selectChildren writes into sel, one entry per child of layer i in
// children order, the bucket that a tuple of layer i (key values plus
// the layer-variable value) selects in that child layer — the tuple's
// stretch of childOf. Each child key is gathered into scratch by the
// child's keyFrom plan and looked up in its bucket index, allocating
// nothing. It reports false when some child layer holds no bucket for
// the tuple. scratch must have capacity for the widest key of any child
// layer.
func (lb *lexBuild) selectChildren(i int, key []values.Value, val values.Value, scratch []values.Value, sel []int32) bool {
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
			return false
		}
		sel[j] = int32(b)
	}
	return true
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
