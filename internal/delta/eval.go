package delta

import (
	"slices"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// This file computes the answer-level difference a catch-up span of
// batches induces on one query: which answers of Q appeared and which
// disappeared between a structure's build version and the current
// instance. The key observation is that any answer in the symmetric
// difference has a witness (a satisfying assignment) that uses at least
// one changed tuple — an appeared answer has a witness through an
// inserted tuple against the current instance, a disappeared answer had
// one through a deleted tuple against the old instance, and the old
// instance is exactly the current one with the deleted rows put back
// (inserted rows are a subset of the current relations already). So the
// candidate set is enumerable without reconstructing the old instance:
// join each atom restricted to its changed rows against the other atoms
// over the current relations plus the deleted rows, then keep the
// candidates whose membership changed.
//
// The join never scans a current relation when it can probe one. Each
// atom after the first has a variable the earlier atoms bound, as every
// membership check's atoms do (the head is bound first), and the
// engine's per-column position index (Index) hands over exactly the
// rows holding that value. Only the small changed and deleted segments,
// and an atom with no bound variable, are scanned. For a one-row write
// to a q-hierarchical query the work is then proportional to the rows
// that join with the written row, not to |D|.

// Span summarizes a catch-up span for one query: Changed[rel] holds
// every row inserted or deleted in the span (candidate witnesses must
// use at least one), Deleted[rel] holds the deleted rows (the part of
// the union instance the current relations lack).
type Span struct {
	Changed map[string]*database.Relation
	Deleted map[string]*database.Relation
}

// CollectSpan folds the batches' mutations of the given relations into
// a Span. ok is false when the span contains an opaque reset of one of
// the relations: the row-level delta is then unknown and the caller
// must rebuild.
func CollectSpan(batches []Batch, rels map[string]bool) (Span, bool) {
	sp := Span{
		Changed: make(map[string]*database.Relation),
		Deleted: make(map[string]*database.Relation),
	}
	add := func(m map[string]*database.Relation, name string, arity int, rows []values.Value) {
		r := m[name]
		if r == nil {
			r = database.NewRelation(arity)
			m[name] = r
		}
		if r.Arity() != arity {
			return // arity drift is impossible for validated batches
		}
		for i := 0; i+arity <= len(rows); i += arity {
			r.Append(rows[i : i+arity]...)
		}
	}
	for bi := range batches {
		for mi := range batches[bi].Muts {
			m := &batches[bi].Muts[mi]
			if !rels[m.Rel] {
				continue
			}
			switch m.Op {
			case OpReset:
				return Span{}, false
			case OpInsert:
				add(sp.Changed, m.Rel, m.Arity, m.Rows)
			case OpDelete:
				add(sp.Changed, m.Rel, m.Arity, m.Rows)
				add(sp.Deleted, m.Rel, m.Arity, m.Rows)
			}
		}
	}
	return sp, true
}

// Size returns the number of changed rows in the span — the engine's
// cheap a-priori bound on the catch-up work.
func (sp *Span) Size() int {
	n := 0
	for _, r := range sp.Changed {
		if r != nil {
			n += r.Len()
		}
	}
	return n
}

// Index resolves position indexes over the columns of the live
// relations a Diff joins against (the engine owns and maintains them).
// Column returns nil when it indexes no such column; the join then
// scans that relation.
type Index interface {
	Column(rel string, col int) Column
}

// Column is a position index over one column of a live relation: the
// rows whose column holds v form a chain that Lookup starts and Next
// follows until -1.
type Column interface {
	// Lookup returns the first row position holding v (-1 for none) and
	// how many rows hold it.
	Lookup(v values.Value) (first int32, n int)
	// Next returns the row after p in p's chain, or -1.
	Next(p int32) int32
}

// Diff computes the answer-level edit of q induced by the span: adds
// are answers of Q over the current instance that the structure's epoch
// (as reported by member) lacks, dels are epoch answers no longer
// supported by the current instance. member must answer membership in
// the epoch's merged answer set; answers carry only head variables
// (existential positions zero), matching the engine's set semantics.
// ix indexes cur's relations (nil: scan them); one evaluation context
// serves the candidate enumeration and every membership check.
func Diff(q *cq.Query, cur *database.Instance, sp Span, member func(order.Answer) bool, ix Index) (adds, dels []order.Answer) {
	if len(q.Head) == 0 || len(q.Atoms) == 0 {
		return nil, nil
	}
	headCols := make([]int, len(q.Head))
	for i, v := range q.Head {
		headCols[i] = int(v)
	}
	cands := tupleidx.New(len(q.Head), 16)
	c := newEvalCtx(q, ix)
	for i := range q.Atoms {
		ch := sp.Changed[q.Atoms[i].Rel]
		if ch == nil || ch.Len() == 0 {
			continue
		}
		for j := range q.Atoms {
			rel := q.Atoms[j].Rel
			if j == i {
				c.live[j], c.extra[j] = nil, ch
			} else {
				c.live[j], c.extra[j] = cur.Relation(rel), sp.Deleted[rel]
			}
		}
		c.order = atomOrder(q, i, nil)
		c.run(0, func() bool {
			cands.InsertCols(c.asg, headCols)
			return true
		})
	}
	if cands.Len() == 0 {
		return nil, nil
	}
	c.onlyLive(cur)
	a := make(order.Answer, q.NumVars())
	for id := 0; id < cands.Len(); id++ {
		key := cands.Key(id)
		for i, v := range q.Head {
			a[v] = key[i]
		}
		has := c.has(a)
		switch m := member(a); {
		case has && !m:
			adds = append(adds, slices.Clone(a))
		case !has && m:
			dels = append(dels, slices.Clone(a))
		}
	}
	return adds, dels
}

// HasAnswer reports whether the head projection carried by a (every
// head variable assigned, others ignored) is an answer of q over in: a
// satisfiability probe with the head bound, stopping at the first
// witness. It scans in's relations and builds no index.
func HasAnswer(q *cq.Query, in *database.Instance, a order.Answer) bool {
	c := newEvalCtx(q, nil)
	c.onlyLive(in)
	return c.has(a)
}

// evalCtx is one backtracking join's state: a partial assignment over
// the query's variables plus, per atom, the live relation (probed
// through ix when a bound variable selects an indexed column, scanned
// otherwise) and a small extra segment that is always scanned.
type evalCtx struct {
	q     *cq.Query
	ix    Index
	asg   order.Answer
	bound []bool
	live  []*database.Relation
	extra []*database.Relation
	cols  [][]colRef // per atom and position, resolved on first probe
	order []int
	undo  [][]cq.VarID // per-depth scratch of variables bound at that depth
	found bool
}

// colRef caches one ix.Column answer (c may be nil: not indexed).
type colRef struct {
	c        Column
	resolved bool
}

func newEvalCtx(q *cq.Query, ix Index) *evalCtx {
	n := len(q.Atoms)
	c := &evalCtx{
		q:     q,
		ix:    ix,
		asg:   make(order.Answer, q.NumVars()),
		bound: make([]bool, q.NumVars()),
		live:  make([]*database.Relation, n),
		extra: make([]*database.Relation, n),
		undo:  make([][]cq.VarID, n),
	}
	if ix != nil {
		c.cols = make([][]colRef, n)
		for i := range q.Atoms {
			c.cols[i] = make([]colRef, len(q.Atoms[i].Vars))
		}
	}
	return c
}

// onlyLive points every atom at in's relation alone and orders the
// atoms for membership checks, which bind the head first.
func (c *evalCtx) onlyLive(in *database.Instance) {
	for j := range c.q.Atoms {
		c.live[j], c.extra[j] = in.Relation(c.q.Atoms[j].Rel), nil
	}
	c.order = atomOrder(c.q, -1, c.q.Head)
}

// has reports whether the head projection carried by a has a witness:
// the head variables are bound before the join starts, and the join
// stops at the first complete assignment.
func (c *evalCtx) has(a order.Answer) bool {
	for _, v := range c.q.Head {
		c.asg[v] = a[v]
		c.bound[v] = true
	}
	c.found = false
	c.run(0, c.witness)
	for _, v := range c.q.Head {
		c.bound[v] = false
	}
	return c.found
}

func (c *evalCtx) witness() bool {
	c.found = true
	return false
}

// run enumerates all assignments extending the current one through the
// atoms of c.order[depth:], calling yield at each complete one; yield
// returns false to stop. run reports whether enumeration ran to the end.
func (c *evalCtx) run(depth int, yield func() bool) bool {
	if depth == len(c.order) {
		return yield()
	}
	ai := c.order[depth]
	arity := len(c.q.Atoms[ai].Vars)
	if r := c.live[ai]; r != nil && r.Arity() == arity {
		if col, first := c.probe(ai); col != nil {
			for p := first; p >= 0; p = col.Next(p) {
				if !c.extend(depth, r.Tuple(int(p)), yield) {
					return false
				}
			}
		} else if !c.scan(depth, r, yield) {
			return false
		}
	}
	if r := c.extra[ai]; r != nil && r.Arity() == arity {
		return c.scan(depth, r, yield)
	}
	return true
}

// probe picks, among the positions of atom ai whose variable is already
// bound, the indexed column whose bound value the fewest rows hold, and
// returns it with the first row of that value's chain. col is nil when
// no bound position is indexed: the caller scans.
func (c *evalCtx) probe(ai int) (col Column, first int32) {
	if c.ix == nil {
		return nil, -1
	}
	best := 0
	for k, v := range c.q.Atoms[ai].Vars {
		if !c.bound[v] {
			continue
		}
		ref := &c.cols[ai][k]
		if !ref.resolved {
			ref.c, ref.resolved = c.ix.Column(c.q.Atoms[ai].Rel, k), true
		}
		if ref.c == nil {
			continue
		}
		f, n := ref.c.Lookup(c.asg[v])
		if n == 0 {
			return ref.c, -1 // no row holds the value: nothing joins
		}
		if col == nil || n < best {
			col, first, best = ref.c, f, n
		}
	}
	return col, first
}

// scan extends the assignment through every row of r.
func (c *evalCtx) scan(depth int, r *database.Relation, yield func() bool) bool {
	for t, n := 0, r.Len(); t < n; t++ {
		if !c.extend(depth, r.Tuple(t), yield) {
			return false
		}
	}
	return true
}

// extend binds the atom at depth to row when the row agrees with the
// variables bound so far, recurses, and unbinds again; it returns false
// once yield asked to stop.
func (c *evalCtx) extend(depth int, row []values.Value, yield func() bool) bool {
	undo := c.undo[depth][:0]
	for k, v := range c.q.Atoms[c.order[depth]].Vars {
		if c.bound[v] {
			if c.asg[v] != row[k] {
				c.unbind(undo)
				return true
			}
			continue
		}
		c.asg[v] = row[k]
		c.bound[v] = true
		undo = append(undo, v)
	}
	c.undo[depth] = undo
	ok := c.run(depth+1, yield)
	c.unbind(undo)
	return ok
}

func (c *evalCtx) unbind(vars []cq.VarID) {
	for _, v := range vars {
		c.bound[v] = false
	}
}

// atomOrder picks an evaluation order: first (when ≥ 0) leads, then
// atoms are added greedily by how many of their variables are already
// bound (pre is the set of variables bound before evaluation starts),
// so the scan narrows as early as possible.
func atomOrder(q *cq.Query, first int, pre []cq.VarID) []int {
	n := len(q.Atoms)
	out := make([]int, 0, n)
	used := make([]bool, n)
	bound := make(map[cq.VarID]bool, q.NumVars())
	for _, v := range pre {
		bound[v] = true
	}
	take := func(i int) {
		out = append(out, i)
		used[i] = true
		for _, v := range q.Atoms[i].Vars {
			bound[v] = true
		}
	}
	if first >= 0 {
		take(first)
	}
	for len(out) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, v := range q.Atoms[i].Vars {
				if bound[v] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		take(best)
	}
	return out
}
