package selection

import (
	"fmt"

	"rankedaccess/internal/checked"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/reduce"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// IntractableError mirrors access.IntractableError for the selection
// problems.
type IntractableError struct {
	Verdict classify.Verdict
}

func (e *IntractableError) Error() string {
	return "selection: " + e.Verdict.String()
}

// SelectLex returns the k-th answer (0-based) of q over in under the
// (possibly partial) lexicographic order l, in O(n) time (Theorem 6.1,
// algorithm of Lemma 6.6). Ties beyond l's variables are broken by
// ascending variable-id order, making the result deterministic. Under
// unary FDs (Theorem 8.22) selection is performed on the FD-extension
// and mapped back; fds may be nil, and then nothing is extended.
//
// It fails with *IntractableError when the extension is not
// free-connex; callers should consult classify.SelectionLex first for
// the certificate.
func SelectLex(q *cq.Query, in *database.Instance, l order.Lex, fds fd.Set, k int64) (order.Answer, error) {
	verdict, w := classify.SelectionLex(q, l, fds)
	if !verdict.Tractable {
		return nil, &IntractableError{Verdict: verdict}
	}
	iplus, err := extendInstance(q, in, fds, w.Ext)
	if err != nil {
		return nil, err
	}
	full, err := reduce.FreeReduce(w.Ext.Query, iplus)
	if err != nil {
		return nil, err
	}
	a, err := selectLexFull(w.Ext.Query, full, w.LPlus, k)
	if err != nil {
		return nil, err
	}
	return fd.ProjectAnswer(q, a), nil
}

// extendInstance checks the FDs on in and builds the instance I⁺ the
// extension's query runs on. With no FDs the extension is the identity
// and I⁺ is in itself — not a copy, and self-joins stay allowed.
func extendInstance(q *cq.Query, in *database.Instance, fds fd.Set, ext *fd.Extension) (*database.Instance, error) {
	if len(fds) == 0 {
		return in, nil
	}
	if err := fds.Check(q, in); err != nil {
		return nil, err
	}
	return ext.ExtendInstance(q, in)
}

// selectLexFull runs the iterative selection over a reduced full CQ.
func selectLexFull(q *cq.Query, full *reduce.Full, l order.Lex, k int64) (order.Answer, error) {
	if k < 0 {
		return nil, ErrOutOfBound
	}
	// Work on copies: the iteration filters relations destructively.
	nodes := make([]*reduce.Node, len(full.Nodes))
	for i, n := range full.Nodes {
		nodes[i] = &reduce.Node{Vars: append([]cq.VarID(nil), n.Vars...), Rel: n.Rel}
	}

	if q.IsBoolean() {
		if err := reduceNodes(nodes, full.Origin); err != nil {
			return nil, err
		}
		for _, n := range nodes {
			if n.Rel.Len() == 0 {
				return nil, ErrOutOfBound
			}
		}
		if k != 0 {
			return nil, ErrOutOfBound
		}
		return make(order.Answer, q.NumVars()), nil
	}

	// Complete the order arbitrarily: remaining free variables ascending.
	// (Any completion is valid for selection; no trio condition needed.)
	completed := append([]order.LexEntry(nil), l.Entries...)
	inOrder := uint64(0)
	for _, e := range completed {
		inOrder |= 1 << uint(e.Var)
	}
	for v := 0; v < q.NumVars(); v++ {
		bit := uint64(1) << uint(v)
		if q.Free()&bit != 0 && inOrder&bit == 0 {
			completed = append(completed, order.LexEntry{Var: cq.VarID(v)})
		}
	}

	ans := make(order.Answer, q.NumVars())
	for step, entry := range completed {
		hist, err := histogram(nodes, full.Origin, entry.Var)
		if err != nil {
			return nil, err
		}
		if len(hist) == 0 {
			return nil, ErrOutOfBound
		}
		// Direction: for descending components select on negated keys.
		items := make([]WItem[values.Value], 0, len(hist))
		for val, cnt := range hist {
			key := val
			if entry.Dir == order.Desc {
				key = -val
			}
			items = append(items, WItem[values.Value]{Key: key, Weight: cnt})
		}
		key, before, ok := WeightedSelect(items, k)
		if !ok {
			if step == 0 {
				return nil, ErrOutOfBound
			}
			return nil, fmt.Errorf("selection: internal: index escaped its group at %s",
				q.VarName(entry.Var))
		}
		val := key
		if entry.Dir == order.Desc {
			val = -key
		}
		ans[entry.Var] = val
		k -= before
		// Fix the chosen value in every node containing the variable.
		for _, n := range nodes {
			if c := n.Col(entry.Var); c >= 0 {
				cc := c
				n.Rel = n.Rel.Filter(func(t []values.Value) bool { return t[cc] == val })
			}
		}
	}
	if k != 0 {
		return nil, fmt.Errorf("selection: internal: residual index %d", k)
	}
	return ans, nil
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

// histogram computes, for each value c in the active domain of v, the
// number of answers assigning c to v (Lemma 6.5): reduce the nodes, root
// the join tree at a node containing v, compute subtree counts bottom-up,
// and aggregate the root counts by the value of v.
func histogram(nodes []*reduce.Node, origin *cq.Query, v cq.VarID) (map[values.Value]int64, error) {
	f := &reduce.Full{Origin: origin, Nodes: nodes}
	tree, err := reduce.BuildTree(f)
	if err != nil {
		return nil, err
	}
	rootIdx := -1
	for i, n := range nodes {
		if n.Col(v) >= 0 {
			rootIdx = i
			break
		}
	}
	if rootIdx < 0 {
		return nil, fmt.Errorf("selection: internal: variable %s in no node", origin.VarName(v))
	}
	tree.Reroot(rootIdx)
	tree.Yannakakis()

	counts, err := subtreeCounts(tree)
	if err != nil {
		return nil, err
	}
	root := nodes[rootIdx]
	col := root.Col(v)
	hist := make(map[values.Value]int64, root.Rel.Len())
	for i := 0; i < root.Rel.Len(); i++ {
		val := root.Rel.Tuple(i)[col]
		s, err := checked.Add(hist[val], counts[rootIdx][i])
		if err != nil {
			return nil, fmt.Errorf("selection: %w", err)
		}
		hist[val] = s
	}
	return hist, nil
}

// subtreeCounts computes, for every tuple of every node, the number of
// answers it participates in within its subtree (post-order product of
// child group sums).
func subtreeCounts(tree *reduce.Tree) ([][]int64, error) {
	nodes := tree.Full.Nodes
	counts := make([][]int64, len(nodes))
	var post []int
	var walk func(int)
	walk = func(u int) {
		for _, c := range tree.Children[u] {
			walk(c)
		}
		post = append(post, u)
	}
	walk(tree.Root)

	for _, u := range post {
		n := nodes[u]
		cnt := make([]int64, n.Rel.Len())
		for i := range cnt {
			cnt[i] = 1
		}
		for _, c := range tree.Children[u] {
			child := nodes[c]
			uCols, cCols := reduce.SharedCols(n, child)
			// Group child counts by join key: sums[id] for key id.
			keys := tupleidx.New(len(cCols), child.Rel.Len())
			var sums []int64
			for i := 0; i < child.Rel.Len(); i++ {
				id, added := keys.InsertCols(child.Rel.Tuple(i), cCols)
				if added {
					sums = append(sums, 0)
				}
				s, err := checked.Add(sums[id], counts[c][i])
				if err != nil {
					return nil, fmt.Errorf("selection: %w", err)
				}
				sums[id] = s
			}
			for i := 0; i < n.Rel.Len(); i++ {
				var sum int64
				if id, ok := keys.LookupCols(n.Rel.Tuple(i), uCols); ok {
					sum = sums[id]
				}
				m, err := checked.Mul(cnt[i], sum)
				if err != nil {
					return nil, fmt.Errorf("selection: %w", err)
				}
				cnt[i] = m
			}
		}
		counts[u] = cnt
	}
	return counts, nil
}

// CountAnswers returns |Q(I)| for a free-connex CQ in linear time (the
// root sums of the counting DP); used by tests and the CLI.
func CountAnswers(q *cq.Query, in *database.Instance) (int64, error) {
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		return 0, err
	}
	if q.IsBoolean() {
		if err := reduceNodes(full.Nodes, full.Origin); err != nil {
			return 0, err
		}
		for _, n := range full.Nodes {
			if n.Rel.Len() == 0 {
				return 0, nil
			}
		}
		return 1, nil
	}
	v := q.Head[0]
	hist, err := histogram(full.Nodes, full.Origin, v)
	if err != nil {
		return 0, err
	}
	total := checked.NewCounter(0)
	for _, c := range hist {
		total.Add(c)
	}
	if err := total.Err(); err != nil {
		return 0, err
	}
	return total.Value(), nil
}
