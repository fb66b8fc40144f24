// Package reduce implements the query/instance transformations the
// paper's algorithms are built on:
//
//   - the folklore reduction of a free-connex CQ with projections to a
//     full acyclic CQ over a linear-time-computable instance
//     (Proposition 2.3), realized as a free-restricted GYO elimination;
//   - the Yannakakis full semijoin reduction over a join tree;
//   - the maximal-contraction transformer of Lemma 7.7 (absorbed atoms
//     and absorbed variables) with answer reconstruction, used by SUM
//     selection.
package reduce

import (
	"errors"
	"fmt"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/hypergraph"
	"rankedaccess/internal/par"
	"rankedaccess/internal/values"
)

// ErrNotFreeConnex reports that the free-restricted elimination got stuck:
// the query is not free-connex (or cyclic), so Proposition 2.3 does not
// apply.
var ErrNotFreeConnex = errors.New("reduce: query is not free-connex")

// Node is one relation of a reduced full CQ: a set of variables (column
// order in Vars) with its materialized relation.
type Node struct {
	Vars []cq.VarID
	Rel  *database.Relation
}

// VarSet returns the node's variables as a bitset.
func (n *Node) VarSet() hypergraph.VSet {
	var s hypergraph.VSet
	for _, v := range n.Vars {
		s |= hypergraph.Bit(int(v))
	}
	return s
}

// Col returns the column position of v in the node, or -1.
func (n *Node) Col(v cq.VarID) int {
	for i, u := range n.Vars {
		if u == v {
			return i
		}
	}
	return -1
}

// Full is a full acyclic CQ over materialized node relations, sharing
// variable ids with the query it was derived from.
type Full struct {
	// Origin is the query the reduction started from.
	Origin *cq.Query
	// Nodes are the atoms of the full CQ. Their variable union is exactly
	// free(Origin), and the node hypergraph is acyclic.
	Nodes []*Node
}

// Hypergraph returns the node hypergraph.
func (f *Full) Hypergraph() hypergraph.Hypergraph {
	edges := make([]hypergraph.VSet, len(f.Nodes))
	for i, n := range f.Nodes {
		edges[i] = n.VarSet()
	}
	return hypergraph.New(edges)
}

// FreeVars returns the free variables (= all variables of the full CQ).
func (f *Full) FreeVars() []cq.VarID { return f.Origin.Head }

// atomNode materializes the relation of one atom, collapsing repeated
// variable positions (R(x, x) filters equal columns and keeps one).
func atomNode(q *cq.Query, atomIdx int, in *database.Instance) (*Node, error) {
	atom := q.Atoms[atomIdx]
	rel := in.Relation(atom.Rel)
	if rel == nil {
		return nil, fmt.Errorf("reduce: instance lacks relation %s", atom.Rel)
	}
	if rel.Arity() != len(atom.Vars) {
		return nil, fmt.Errorf("reduce: relation %s has arity %d, atom wants %d",
			atom.Rel, rel.Arity(), len(atom.Vars))
	}
	// First-occurrence column per variable; filter rows where repeated
	// positions disagree.
	firstCol := map[cq.VarID]int{}
	var vars []cq.VarID
	var cols []int
	repeated := false
	for pos, v := range atom.Vars {
		if _, ok := firstCol[v]; ok {
			repeated = true
			continue
		}
		firstCol[v] = pos
		vars = append(vars, v)
		cols = append(cols, pos)
	}
	work := rel
	if repeated {
		work = rel.Filter(func(t []values.Value) bool {
			for pos, v := range atom.Vars {
				if t[firstCol[v]] != t[pos] {
					return false
				}
			}
			return true
		})
	}
	return &Node{Vars: vars, Rel: work.ProjectDistinct(cols)}, nil
}

// FreeReduce reduces (q, in) to an equivalent full acyclic CQ over
// free(q) (Proposition 2.3). It repeatedly (a) absorbs a node whose
// variables are contained in another node's by semijoin-filtering the
// absorber, and (b) projects away an existential variable occurring in
// exactly one node. The reduction succeeds exactly when q is free-connex;
// otherwise ErrNotFreeConnex is returned.
//
// The answers of the result (the join of its nodes projected on nothing —
// it is full) are exactly q(in), as VarID-indexed assignments.
func FreeReduce(q *cq.Query, in *database.Instance) (*Full, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	free := hypergraph.VSet(q.Free())
	// Per-atom materialization (project, dedup, repeated-position filter)
	// is independent across atoms; fan it out over bounded workers.
	nodes := make([]*Node, len(q.Atoms))
	if err := par.DoErr(len(q.Atoms), func(i int) error {
		n, err := atomNode(q, i, in)
		if err != nil {
			return err
		}
		nodes[i] = n
		return nil
	}); err != nil {
		return nil, err
	}

	for changed := true; changed; {
		changed = false
		// (a) absorb contained nodes.
		for i := 0; i < len(nodes); i++ {
			for j := 0; j < len(nodes); j++ {
				if i == j {
					continue
				}
				vi, vj := nodes[i].VarSet(), nodes[j].VarSet()
				if !hypergraph.Subset(vi, vj) {
					continue
				}
				// Filter j by i on i's variables, then drop i.
				iCols := make([]int, len(nodes[i].Vars))
				jCols := make([]int, len(nodes[i].Vars))
				for k, v := range nodes[i].Vars {
					iCols[k] = k
					jCols[k] = nodes[j].Col(v)
				}
				nodes[j].Rel = nodes[j].Rel.Semijoin(jCols, nodes[i].Rel, iCols)
				nodes = append(nodes[:i], nodes[i+1:]...)
				changed = true
				i--
				break
			}
		}
		// (b) project away isolated existential variables.
		count := map[cq.VarID]int{}
		where := map[cq.VarID]int{}
		for idx, n := range nodes {
			for _, v := range n.Vars {
				count[v]++
				where[v] = idx
			}
		}
		for v, c := range count {
			if c != 1 || free&hypergraph.Bit(int(v)) != 0 {
				continue
			}
			n := nodes[where[v]]
			keepCols := make([]int, 0, len(n.Vars)-1)
			keepVars := make([]cq.VarID, 0, len(n.Vars)-1)
			for col, u := range n.Vars {
				if u != v {
					keepCols = append(keepCols, col)
					keepVars = append(keepVars, u)
				}
			}
			n.Rel = n.Rel.ProjectDistinct(keepCols)
			n.Vars = keepVars
			changed = true
		}
	}

	full := &Full{Origin: q, Nodes: nodes}
	// Success criteria: only free variables remain and the remainder is
	// acyclic (together: q is free-connex).
	remaining := full.Hypergraph()
	if remaining.Vertices()&^free != 0 {
		return nil, ErrNotFreeConnex
	}
	if !remaining.Acyclic() {
		return nil, ErrNotFreeConnex
	}
	// Not every free variable necessarily survives in a node when the
	// head repeats... it must: free variables are never projected away
	// and absorbing preserves the union. Guard anyway.
	if remaining.Vertices() != free {
		return nil, fmt.Errorf("reduce: internal: lost free variables")
	}
	return full, nil
}

// AsQueryInstance renders the full CQ as an ordinary (query, instance)
// pair with synthetic relation names, for use by generic evaluators.
func (f *Full) AsQueryInstance() (*cq.Query, *database.Instance) {
	q := f.Origin.Clone()
	q.Atoms = nil
	in := database.NewInstance()
	for i, n := range f.Nodes {
		name := fmt.Sprintf("node_%d", i)
		names := make([]string, len(n.Vars))
		for k, v := range n.Vars {
			names[k] = q.VarName(v)
		}
		q.AddAtom(name, names...)
		in.SetRelation(name, n.Rel)
	}
	return q, in
}

// Tree is a rooted join tree over the nodes of a Full query.
type Tree struct {
	Full     *Full
	Parent   []int   // parent node index, -1 for root
	Children [][]int // child lists
	Root     int
}

// BuildTree computes a join tree of the full CQ's nodes via GYO. The
// caller may re-root it with Reroot.
func BuildTree(f *Full) (*Tree, error) {
	jt, ok := f.Hypergraph().GYO()
	if !ok {
		return nil, fmt.Errorf("reduce: node hypergraph is cyclic")
	}
	t := &Tree{Full: f, Parent: jt.Parent, Children: jt.Children(), Root: jt.Root()}
	return t, nil
}

// Reroot re-parents the tree at the given node.
func (t *Tree) Reroot(newRoot int) {
	if newRoot == t.Root {
		return
	}
	// Reverse parent pointers along the path from newRoot to the old root.
	path := []int{newRoot}
	for p := t.Parent[newRoot]; p != -1; p = t.Parent[p] {
		path = append(path, p)
	}
	for i := len(path) - 1; i > 0; i-- {
		t.Parent[path[i]] = path[i-1]
	}
	t.Parent[newRoot] = -1
	t.Root = newRoot
	t.Children = make([][]int, len(t.Parent))
	for i, p := range t.Parent {
		if p >= 0 {
			t.Children[p] = append(t.Children[p], i)
		}
	}
}

// SharedCols returns the aligned column lists of the variables shared
// between nodes a and b.
func SharedCols(a, b *Node) (aCols, bCols []int) {
	for i, v := range a.Vars {
		if j := b.Col(v); j >= 0 {
			aCols = append(aCols, i)
			bCols = append(bCols, j)
		}
	}
	return
}

// Yannakakis performs the full semijoin reduction over the tree: a
// bottom-up pass (parent filtered by each child) followed by a top-down
// pass (child filtered by parent). Afterwards every tuple of every node
// participates in at least one answer.
func (t *Tree) Yannakakis() {
	nodes := t.Full.Nodes
	// Bottom-up: process children before parents (post-order).
	var post []int
	var walk func(int)
	walk = func(u int) {
		for _, c := range t.Children[u] {
			walk(c)
		}
		post = append(post, u)
	}
	walk(t.Root)
	for _, u := range post {
		for _, c := range t.Children[u] {
			uCols, cCols := SharedCols(nodes[u], nodes[c])
			nodes[u].Rel = nodes[u].Rel.Semijoin(uCols, nodes[c].Rel, cCols)
		}
	}
	// Top-down: pre-order, child filtered by parent.
	for i := len(post) - 1; i >= 0; i-- {
		u := post[i]
		for _, c := range t.Children[u] {
			cCols, uCols := SharedCols(nodes[c], nodes[u])
			nodes[c].Rel = nodes[c].Rel.Semijoin(cCols, nodes[u].Rel, uCols)
		}
	}
}
