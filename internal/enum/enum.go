// Package enum provides the enumeration modes the paper positions direct
// access against:
//
//   - RankedLex: ranked enumeration by a lexicographic order, a trivial
//     client of the direct-access structure (§2.5 "Ranked enumeration");
//   - SumEnumerator: ranked enumeration by SUM with logarithmic delay
//     after quasilinear preprocessing for *every* free-connex CQ — the
//     any-k setting [41, 42] that §5 contrasts with direct access by SUM
//     (which is tractable for far fewer queries);
//   - RandomOrder: uniformly random-permutation enumeration via direct
//     access, the application of Carmeli et al. [15] recalled in §1.
package enum

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"rankedaccess/internal/access"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/reduce"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// RankedLex enumerates the answers of a tractable (query, lex-order) pair
// in order, calling emit with the index and answer; it stops early if
// emit returns false. Each emitted answer is freshly allocated and may
// be retained; use RankedLexBuffered when emit only inspects answers.
func RankedLex(la *access.Lex, emit func(k int64, a order.Answer) bool) error {
	return RankedLexBuffered(la, func(k int64, a order.Answer) bool {
		return emit(k, slices.Clone(a))
	})
}

// RankedLexBuffered is RankedLex with one probe buffer reused across the
// whole enumeration: after the first answer every probe is a successor
// step (Remark 3's constant amortized delay, not a descent), the loop
// performs zero allocations per answer, and the answer passed to emit
// aliases the buffer, so emit must copy anything it wants to keep past
// its return.
func RankedLexBuffered(la *access.Lex, emit func(k int64, a order.Answer) bool) error {
	buf := la.NewBuf()
	for k := int64(0); k < la.Total(); k++ {
		a, err := la.AccessInto(buf, k)
		if err != nil {
			return err
		}
		if !emit(k, a) {
			return nil
		}
	}
	return nil
}

// RandomOrder enumerates Q(I) in a uniformly random permutation with
// logarithmic delay, using a direct-access structure in an arbitrary
// tractable order plus a lazily materialized Fisher–Yates shuffle of the
// index space (sampling without replacement). Works for every
// free-connex CQ.
func RandomOrder(q *cq.Query, in *database.Instance, rng *rand.Rand,
	emit func(a order.Answer) bool) error {
	la, err := access.BuildLex(q, in, order.Lex{})
	if err != nil {
		return err
	}
	n := la.Total()
	moved := make(map[int64]int64)
	at := func(i int64) int64 {
		if v, ok := moved[i]; ok {
			return v
		}
		return i
	}
	for t := int64(0); t < n; t++ {
		j := t + rng.Int63n(n-t)
		vt, vj := at(t), at(j)
		moved[j] = vt
		a, err := la.Access(vj)
		if err != nil {
			return err
		}
		if !emit(a) {
			return nil
		}
	}
	return nil
}

// --- Ranked enumeration by SUM (any-k) ---

// SumEnumerator enumerates the answers of a free-connex CQ by
// non-decreasing total weight with O(log n) delay after O(n log n)
// preprocessing: a Lawler-style lazy expansion over the join tree's DFS
// serialization, with exact lower bounds from a best-completion dynamic
// program (the any-k recipe of the algorithms the paper cites as [41]).
type SumEnumerator struct {
	q      *cq.Query
	nodes  []*reduce.Node
	dfs    []int // node indices in DFS pre-order (parents before children)
	parent []int // parent node index per node index (-1 for root)

	tw      [][]float64   // tuple weight per node
	best    [][]float64   // best completion of the tuple's subtree
	buckets []nodeBuckets // per node: join-key bucket table
	pq      expHeap
	boolean bool
	done    bool
}

// nodeBuckets groups a node's tuples by join key with the parent: idx
// maps the key columns (child side) to a dense bucket id, lists[id] is
// the bucket's tuple list sorted by best-completion weight, and
// parentCols are the aligned parent-side columns used to probe without
// materializing a key. The root has idx == nil and a single list.
type nodeBuckets struct {
	idx        *tupleidx.Index
	lists      [][]int
	parentCols []int
}

// expansion is a Lawler state: for the first len(ranks) nodes of the DFS
// order, ranks[i] is the position of the chosen tuple inside its bucket's
// best-sorted list; bound is the exact minimal weight of any completion.
// Every state is generated exactly once: from its predecessor in the last
// component (ranks[last]-1), or by extension with rank 0.
type expansion struct {
	ranks []int32
	bound float64
}

type expHeap []*expansion

func (h expHeap) Len() int           { return len(h) }
func (h expHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h expHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expHeap) Push(x any)        { *h = append(*h, x.(*expansion)) }
func (h *expHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewSumEnumerator prepares ranked enumeration by SUM for any free-connex
// CQ. Queries outside that class yield an error carrying the certificate.
func NewSumEnumerator(q *cq.Query, in *database.Instance, w order.Sum) (*SumEnumerator, error) {
	// Free-connexity is the exact tractability frontier for ranked
	// enumeration by SUM (the contrast recalled in §5); the SelectionLex
	// classifier tests precisely free-connexity.
	if v, _ := classify.SelectionLex(q, order.Lex{}, nil); !v.Tractable {
		return nil, fmt.Errorf("enum: %s", v.String())
	}
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		return nil, err
	}
	tree, err := reduce.BuildTree(full)
	if err != nil {
		return nil, err
	}
	tree.Yannakakis()

	e := &SumEnumerator{q: q, nodes: full.Nodes, parent: tree.Parent}
	if q.IsBoolean() {
		e.boolean = true
		for _, n := range full.Nodes {
			if n.Rel.Len() == 0 {
				e.done = true
			}
		}
		return e, nil
	}

	var walk func(int)
	walk = func(u int) {
		e.dfs = append(e.dfs, u)
		for _, c := range tree.Children[u] {
			walk(c)
		}
	}
	walk(tree.Root)

	// Attribute weights become tuple weights on the first node that
	// mentions each variable (§2.2 "Attribute Weights vs. Tuple Weights").
	assigned := make(map[cq.VarID]int)
	for _, u := range e.dfs {
		for _, v := range full.Nodes[u].Vars {
			if _, ok := assigned[v]; !ok {
				assigned[v] = u
			}
		}
	}
	e.tw = make([][]float64, len(full.Nodes))
	for _, u := range e.dfs {
		n := full.Nodes[u]
		tw := make([]float64, n.Rel.Len())
		for i := range tw {
			t := n.Rel.Tuple(i)
			for c, v := range n.Vars {
				if assigned[v] == u {
					tw[i] += w.VarWeight(v, t[c])
				}
			}
		}
		e.tw[u] = tw
	}
	if err := e.prepare(tree); err != nil {
		return nil, err
	}
	return e, nil
}

// NewTupleSumEnumerator prepares ranked enumeration by the sum of
// *tuple* weights — the alternative convention of §2.2 used by the
// ranked-enumeration literature the paper builds on. It applies to full
// self-join-free CQs (where the paper notes the semantics are clear) with
// no repeated variables inside an atom. tw maps a relation symbol and a
// tuple (by value, which is well-defined under set semantics) to its
// weight; relations without an entry weigh 0.
func NewTupleSumEnumerator(q *cq.Query, in *database.Instance, tw order.TupleSum) (*SumEnumerator, error) {
	if !q.IsFull() {
		return nil, fmt.Errorf("enum: tuple-weight enumeration requires a full CQ")
	}
	if !q.IsSelfJoinFree() {
		return nil, fmt.Errorf("enum: tuple-weight enumeration requires a self-join-free CQ")
	}
	if q.HasRepeatedVarInAtom() {
		return nil, fmt.Errorf("enum: tuple-weight enumeration requires atoms without repeated variables")
	}
	if v, _ := classify.SelectionLex(q, order.Lex{}, nil); !v.Tractable {
		return nil, fmt.Errorf("enum: %s", v.String())
	}
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		return nil, err
	}
	tree, err := reduce.BuildTree(full)
	if err != nil {
		return nil, err
	}
	tree.Yannakakis()

	e := &SumEnumerator{q: q, nodes: full.Nodes, parent: tree.Parent}
	var walk func(int)
	walk = func(u int) {
		e.dfs = append(e.dfs, u)
		for _, c := range tree.Children[u] {
			walk(c)
		}
	}
	walk(tree.Root)

	// Match each surviving node to the atoms it absorbed: FreeReduce on a
	// full repeated-variable-free CQ only absorbs atoms into superset
	// atoms; a node's weight is its own atom's tuple weight plus, for
	// every absorbed atom, the weight of the (unique) projected tuple.
	nodeSets := make([]uint64, len(full.Nodes))
	for i, n := range full.Nodes {
		nodeSets[i] = uint64(n.VarSet())
	}
	e.tw = make([][]float64, len(full.Nodes))
	for i, n := range full.Nodes {
		e.tw[i] = make([]float64, n.Rel.Len())
	}
	for ai := range q.Atoms {
		atom := q.Atoms[ai]
		fn := tw[atom.Rel]
		if fn == nil {
			continue
		}
		// Host node: the first node whose variables contain the atom's.
		host := -1
		av := uint64(q.AtomVars(ai))
		for i := range full.Nodes {
			if av&^nodeSets[i] == 0 {
				host = i
				break
			}
		}
		if host < 0 {
			return nil, fmt.Errorf("enum: internal: atom %s not covered by any node", atom.Rel)
		}
		hn := full.Nodes[host]
		cols := make([]int, len(atom.Vars))
		for j, v := range atom.Vars {
			cols[j] = hn.Col(v)
		}
		buf := make([]values.Value, len(cols))
		for t := 0; t < hn.Rel.Len(); t++ {
			row := hn.Rel.Tuple(t)
			for j, c := range cols {
				buf[j] = row[c]
			}
			e.tw[host][t] += fn(buf)
		}
	}
	if err := e.prepare(tree); err != nil {
		return nil, err
	}
	return e, nil
}

// prepare computes best-completion values, buckets, and seeds the heap,
// given e.tw. Factored out of the two constructors.
func (e *SumEnumerator) prepare(tree *reduce.Tree) error {
	// best(t) = tw(t) + Σ over children of the minimum best in the
	// child's joining bucket; computed bottom-up (reverse DFS order).
	e.best = make([][]float64, len(e.nodes))
	e.buckets = make([]nodeBuckets, len(e.nodes))
	for i := len(e.dfs) - 1; i >= 0; i-- {
		u := e.dfs[i]
		n := e.nodes[u]
		bestU := append([]float64(nil), e.tw[u]...)
		for _, c := range tree.Children[u] {
			child := e.nodes[c]
			uCols, cCols := reduce.SharedCols(n, child)
			bk := tupleidx.New(len(cCols), child.Rel.Len())
			lists := make([][]int, 0, child.Rel.Len())
			for t := 0; t < child.Rel.Len(); t++ {
				id, added := bk.InsertCols(child.Rel.Tuple(t), cCols)
				if added {
					lists = append(lists, nil)
				}
				lists[id] = append(lists[id], t)
			}
			for _, lst := range lists {
				sort.Slice(lst, func(a, b int) bool { return e.best[c][lst[a]] < e.best[c][lst[b]] })
			}
			e.buckets[c] = nodeBuckets{idx: bk, lists: lists, parentCols: uCols}
			for t := 0; t < n.Rel.Len(); t++ {
				// The child-side key over cCols equals the parent-side
				// values over uCols in the same pairing order.
				id, ok := bk.LookupCols(n.Rel.Tuple(t), uCols)
				if !ok {
					return fmt.Errorf("enum: internal: dangling tuple after reduction")
				}
				bestU[t] += e.best[c][lists[id][0]]
			}
		}
		e.best[u] = bestU
	}

	// Root bucket: all root tuples under the empty key.
	root := e.dfs[0]
	rootIdx := make([]int, e.nodes[root].Rel.Len())
	for i := range rootIdx {
		rootIdx[i] = i
	}
	sort.Slice(rootIdx, func(a, b int) bool { return e.best[root][rootIdx[a]] < e.best[root][rootIdx[b]] })
	e.buckets[root] = nodeBuckets{lists: [][]int{rootIdx}}

	if len(rootIdx) > 0 {
		heap.Push(&e.pq, &expansion{ranks: []int32{0}, bound: e.best[root][rootIdx[0]]})
	}
	return nil
}

// bucketFor returns the best-sorted tuple list of node u given the
// parent's chosen tuple (or the root bucket). Probes are allocation-free:
// the parent tuple is hashed column-wise, no key is materialized.
func (e *SumEnumerator) bucketFor(u int, chosen []int) []int {
	p := e.parent[u]
	bk := &e.buckets[u]
	if p < 0 {
		return bk.lists[0]
	}
	id, ok := bk.idx.LookupCols(e.nodes[p].Rel.Tuple(chosen[p]), bk.parentCols)
	if !ok {
		return nil
	}
	return bk.lists[id]
}

// Next returns the next answer in non-decreasing weight order together
// with its weight; ok is false when the enumeration is exhausted. Delay
// is O(log n) (heap operations on states of constant length).
func (e *SumEnumerator) Next() (a order.Answer, weight float64, ok bool) {
	if e.boolean {
		if e.done {
			return nil, 0, false
		}
		e.done = true
		return make(order.Answer, e.q.NumVars()), 0, true
	}
	if e.pq.Len() == 0 {
		return nil, 0, false
	}
	s := heap.Pop(&e.pq).(*expansion)

	// Re-resolve the chosen tuples of the state's prefix.
	chosen := make([]int, len(e.nodes))
	for i := range chosen {
		chosen[i] = -1
	}
	last := len(s.ranks) - 1
	var lastList []int
	for i := 0; i <= last; i++ {
		u := e.dfs[i]
		lst := e.bucketFor(u, chosen)
		chosen[u] = lst[int(s.ranks[i])]
		if i == last {
			lastList = lst
		}
	}
	// (a) Sibling of the state's last component: generated here, exactly
	// once per chain step.
	if r := int(s.ranks[last]); r+1 < len(lastList) {
		u := e.dfs[last]
		adv := &expansion{
			ranks: append([]int32(nil), s.ranks...),
			bound: s.bound + e.best[u][lastList[r+1]] - e.best[u][lastList[r]],
		}
		adv.ranks[last]++
		heap.Push(&e.pq, adv)
	}
	// (b) Extend to a complete state with rank 0 everywhere, pushing the
	// rank-1 sibling of each newly assigned node (bound deltas are exact
	// because deeper nodes are still open at push time).
	for i := last + 1; i < len(e.dfs); i++ {
		u := e.dfs[i]
		lst := e.bucketFor(u, chosen)
		if len(lst) > 1 {
			adv := &expansion{
				ranks: append(append([]int32(nil), s.ranks...), 1),
				bound: s.bound + e.best[u][lst[1]] - e.best[u][lst[0]],
			}
			heap.Push(&e.pq, adv)
		}
		s.ranks = append(s.ranks, 0)
		chosen[u] = lst[0]
	}
	// Assemble the answer.
	a = make(order.Answer, e.q.NumVars())
	for u, t := range chosen {
		if t < 0 {
			continue
		}
		n := e.nodes[u]
		tu := n.Rel.Tuple(t)
		for c, v := range n.Vars {
			a[v] = tu[c]
		}
	}
	return a, s.bound, true
}

// Drain runs the enumeration to completion, returning all answers in
// order (for tests and small outputs).
func (e *SumEnumerator) Drain(limit int64) (answers []order.Answer, weights []float64) {
	for limit != 0 {
		a, w, ok := e.Next()
		if !ok {
			break
		}
		answers = append(answers, a)
		weights = append(weights, w)
		if limit > 0 {
			limit--
		}
	}
	return answers, weights
}
