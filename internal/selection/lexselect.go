package selection

import (
	"fmt"
	"math"
	"slices"

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

// errOverflow refuses a query whose answer count exceeds int64.
var errOverflow = fmt.Errorf("selection: %w", checked.ErrOverflow)

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

// selectLexFull runs the iterative selection of Lemma 6.6 over a reduced
// full CQ: per order variable, one histogram, one weighted selection
// and one value fixed. Fixing compacts full's node relations in place,
// so full must be FreeReduce's own result, never an instance's
// relations.
func selectLexFull(q *cq.Query, full *reduce.Full, l order.Lex, k int64) (order.Answer, error) {
	if k < 0 {
		return nil, ErrOutOfBound
	}
	if q.IsBoolean() {
		if k != 0 || !nonEmpty(full.Nodes) {
			return nil, ErrOutOfBound
		}
		return make(order.Answer, q.NumVars()), nil
	}
	dp, err := newCounter(full)
	if err != nil {
		return nil, err
	}
	ans := make(order.Answer, q.NumVars())
	for step, entry := range complete(q, l) {
		items, err := dp.histogram(entry.Var)
		if err != nil {
			return nil, err
		}
		// A descending component is selected on ^val, which reverses
		// the order of every int64 (-val overflows for math.MinInt64).
		if entry.Dir == order.Desc {
			for i := range items {
				items[i].Key = ^items[i].Key
			}
		}
		key, before, ok := WeightedSelect(items, k)
		if !ok {
			if step == 0 {
				return nil, ErrOutOfBound
			}
			return nil, fmt.Errorf("selection: internal: index escaped its group at %s",
				q.VarName(entry.Var))
		}
		if entry.Dir == order.Desc {
			key = ^key
		}
		ans[entry.Var] = key
		k -= before
		dp.fix(entry.Var, key)
	}
	if k != 0 {
		return nil, fmt.Errorf("selection: internal: residual index %d", k)
	}
	return ans, nil
}

// complete extends l by the free variables it lacks, ascending. Any
// completion is valid for selection; no trio condition applies.
func complete(q *cq.Query, l order.Lex) []order.LexEntry {
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
	return completed
}

// nonEmpty reports whether every node holds a row. FreeReduce leaves a
// Boolean query only nullary nodes, so this is whether it holds.
func nonEmpty(nodes []*reduce.Node) bool {
	for _, n := range nodes {
		if n.Rel.Len() == 0 {
			return false
		}
	}
	return true
}

// counter runs Lemma 6.5's counting DP over the nodes of a reduced full
// CQ, rooted anew for each variable. Fixing a value only ever shrinks
// the relations, so its buffers are allocated once and resliced on
// later steps.
type counter struct {
	nodes []*reduce.Node
	tree  *reduce.Tree
	// counts[u][i] is the number of answers of u's subtree that row i
	// of node u extends, saturated at math.MaxUint64.
	counts [][]uint64
	sums   []uint64 // per key of the child being joined
	items  []WItem[values.Value]
	post   []int
}

func newCounter(full *reduce.Full) (*counter, error) {
	tree, err := reduce.BuildTree(full)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, n := range full.Nodes {
		rows += n.Rel.Len()
	}
	buf := make([]uint64, rows)
	c := &counter{nodes: full.Nodes, tree: tree, counts: make([][]uint64, len(full.Nodes))}
	for u, n := range full.Nodes {
		c.counts[u], buf = buf[:n.Rel.Len():n.Rel.Len()], buf[n.Rel.Len():]
	}
	return c, nil
}

// histogram returns, for each value c of v that some answer assigns to
// v, the number of such answers (Lemma 6.5), as items whose storage the
// next call reuses.
//
// It roots the join tree at a node holding v and runs only the
// bottom-up counting DP; no semijoin reduction comes first. The counts
// are exact without one: a row that joins nothing in a child's subtree
// counts 0, so a root row's count is the number of answers extending
// it, and grouping the root's counts by v's value is the histogram.
// Counts saturate instead of failing, because a count that overflows in
// a subtree reaching no answer is multiplied by 0 on its way up; one
// that reaches the root makes the total exceed math.MaxInt64, and that
// is refused with checked.ErrOverflow.
//
// Beyond the counter's buffers, a call allocates the child key indexes,
// which hold only the keys of rows counting more than 0, and a hash of
// the root's values when v leads no node.
func (c *counter) histogram(v cq.VarID) ([]WItem[values.Value], error) {
	root, col := c.rootAt(v)
	if root < 0 {
		return nil, fmt.Errorf("selection: internal: variable %s in no node", c.tree.Full.Origin.VarName(v))
	}
	c.run(root)
	rel, cnt := c.nodes[root].Rel, c.counts[root]
	data, ar := rel.Data(), rel.Arity()
	// FreeReduce's nodes are sorted and distinct (ProjectDistinct sorts
	// them, Semijoin and fix keep their order), so when v leads the root
	// the rows holding one value form a run and group with no hash.
	// Were they not sorted, a value would only come out as several
	// items, which WeightedSelect takes as one key.
	var keys *tupleidx.Index
	items := c.items[:0]
	if col == 0 {
		items = slices.Grow(items, runs(data, ar, cnt))
	} else {
		keys = tupleidx.New(1, 0)
	}
	cols := []int{col}
	for i, w := range cnt {
		if w == 0 {
			continue
		}
		// A new value gets id len(items): the index numbers keys densely
		// in insertion order, and a run that ends starts the next.
		val, id := data[i*ar+col], len(items)
		if keys != nil {
			id, _ = keys.InsertCols(rel.Tuple(i), cols)
		} else if id > 0 && items[id-1].Key == val {
			id--
		}
		if id == len(items) {
			items = append(items, WItem[values.Value]{Key: val})
		}
		sum := checked.SatAdd(uint64(items[id].Weight), w)
		if sum > math.MaxInt64 {
			return nil, errOverflow
		}
		items[id].Weight = int64(sum)
	}
	c.items = items
	var total uint64
	for _, it := range items {
		total += uint64(it.Weight) // two weights ≤ MaxInt64 never wrap a uint64
		if total > math.MaxInt64 {
			return nil, errOverflow
		}
	}
	return items, nil
}

// runs counts the runs of equal first columns among the rows that
// count more than 0.
func runs(data []values.Value, ar int, cnt []uint64) int {
	n, prev := 0, values.Value(0)
	for i, w := range cnt {
		if w > 0 && (n == 0 || data[i*ar] != prev) {
			n, prev = n+1, data[i*ar]
		}
	}
	return n
}

// rootAt picks the node v's histogram is rooted at: one whose first
// column is v if any, so its counts group by runs, else the first node
// holding v. col is v's column there; root is -1 if no node holds v.
func (c *counter) rootAt(v cq.VarID) (root, col int) {
	root = -1
	for u, n := range c.nodes {
		switch j := n.Col(v); {
		case j == 0:
			return u, 0
		case j > 0 && root < 0:
			root, col = u, j
		}
	}
	return root, col
}

// run fills counts bottom-up over the join tree rooted at root.
func (c *counter) run(root int) {
	c.tree.Reroot(root)
	c.post = c.post[:0]
	c.postorder(root)
	for _, u := range c.post {
		n := c.nodes[u]
		cnt := c.counts[u][:n.Rel.Len()]
		for i := range cnt {
			cnt[i] = 1
		}
		for _, ch := range c.tree.Children[u] {
			c.join(n, cnt, c.nodes[ch], c.counts[ch])
		}
		c.counts[u] = cnt
	}
}

func (c *counter) postorder(u int) {
	for _, ch := range c.tree.Children[u] {
		c.postorder(ch)
	}
	c.post = append(c.post, u)
}

// join multiplies each count of node n by the summed counts of the
// child's rows it joins, 0 when it joins none. The child's rows are
// grouped by join key through an index that starts empty and takes only
// rows counting more than 0.
func (c *counter) join(n *reduce.Node, cnt []uint64, child *reduce.Node, childCnt []uint64) {
	nCols, cCols := reduce.SharedCols(n, child)
	keys := tupleidx.New(len(cCols), 0)
	sums := c.sums[:0]
	for i, w := range childCnt {
		if w == 0 {
			continue
		}
		id, added := keys.InsertCols(child.Rel.Tuple(i), cCols)
		if added {
			sums = append(sums, 0)
		}
		sums[id] = checked.SatAdd(sums[id], w)
	}
	c.sums = sums
	for i, w := range cnt {
		if w == 0 {
			continue
		}
		if id, ok := keys.LookupCols(n.Rel.Tuple(i), nCols); ok {
			cnt[i] = checked.SatMul(w, sums[id])
		} else {
			cnt[i] = 0
		}
	}
}

// fix keeps, in every node holding v, the rows that assign val to v.
// It compacts each relation in place and in order, so the nodes stay
// sorted.
func (c *counter) fix(v cq.VarID, val values.Value) {
	for _, n := range c.nodes {
		col := n.Col(v)
		if col < 0 {
			continue
		}
		data, ar := n.Rel.Data(), n.Rel.Arity()
		w := 0
		for i := 0; i < len(data); i += ar {
			if data[i+col] == val {
				copy(data[w:w+ar], data[i:i+ar])
				w += ar
			}
		}
		// Cannot fail: ar ≥ 1 since the node holds v, and w tiles it.
		n.Rel, _ = database.FromFlat(ar, data[:w])
	}
}

// CountAnswers returns |Q(I)| for a free-connex CQ in linear time: the
// total of one histogram, from the counting DP alone.
func CountAnswers(q *cq.Query, in *database.Instance) (int64, error) {
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		return 0, err
	}
	if q.IsBoolean() {
		if nonEmpty(full.Nodes) {
			return 1, nil
		}
		return 0, nil
	}
	dp, err := newCounter(full)
	if err != nil {
		return 0, err
	}
	items, err := dp.histogram(q.Head[0])
	if err != nil {
		return 0, err
	}
	var total int64
	for _, it := range items {
		total += it.Weight
	}
	return total, nil
}
