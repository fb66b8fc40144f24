package engine

import (
	"slices"
	"sync"

	"rankedaccess/internal/database"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// This file is the catch-up join's index: per relation of the live
// instance and per column, the positions of the rows holding each value.
// delta.Diff probes it (it implements delta.Index) instead of scanning a
// relation whenever the atom it joins has a bound variable, so a
// catch-up after a one-row write visits the rows that join with that
// row, not |D|.
//
// Lifecycle. A column is built the first time a catch-up probes it;
// catch-ups hold mu.RLock, so relIndexes.mu serializes first builds.
// The write path maintains every built column under mu exclusive (see
// applyMuts). Mutate drops the columns of every relation it resets, which
// covers any in-place reorder an opaque mutation makes; a restore or
// load installs a fresh relIndexes with its new instance.

// relIndexes holds the built columns of one instance's relations.
type relIndexes struct {
	in   *database.Instance
	mu   sync.Mutex
	rels map[string]*relIndex
}

// relIndex is one relation's columns (nil until first probed; one at
// least is built, since the first probe creates the relIndex).
// rel pins the relation object the positions refer to: a relation
// replaced under the same name is indexed afresh.
type relIndex struct {
	rel  *database.Relation
	cols []*colIndex
}

// colIndex is a position index over one column: the column's distinct
// values sit in one tupleidx key table, and per key id first is the
// first row of its chain and count the chain's length; per row, next is
// the following row holding the same value (-1 ends a chain). That is
// one int32 per row plus about 20 bytes per distinct value.
type colIndex struct {
	keys  *tupleidx.Index
	first []int32
	count []int32
	next  []int32
}

func newRelIndexes(in *database.Instance) *relIndexes {
	return &relIndexes{in: in, rels: make(map[string]*relIndex)}
}

// Column returns the position index of the relation's column, building
// it on first use. The caller holds the engine's mu (shared or
// exclusive), so the relation cannot change while it probes.
func (x *relIndexes) Column(rel string, col int) delta.Column {
	r := x.in.Relation(rel)
	if r == nil || col < 0 || col >= r.Arity() {
		return nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	ri := x.rels[rel]
	if ri == nil || ri.rel != r {
		ri = &relIndex{rel: r, cols: make([]*colIndex, r.Arity())}
		x.rels[rel] = ri
	}
	if ri.cols[col] == nil {
		ri.cols[col] = buildColIndex(r, col)
	}
	return ri.cols[col]
}

// drop forgets the relation's columns; the next probe rebuilds them.
func (x *relIndexes) drop(rel string) { delete(x.rels, rel) }

// built returns the relation's index when it has one for the relation
// object currently installed under rel, dropping a stale one.
func (x *relIndexes) built(rel string) *relIndex {
	ri := x.rels[rel]
	if ri != nil && ri.rel != x.in.Relation(rel) {
		delete(x.rels, rel)
		return nil
	}
	return ri
}

// applyMuts applies validated mutations to the instance under mu
// exclusive, keeping every built column in step: an insert appends its row's
// position, a delete finds its rows through the index and swap-removes
// them. A relation with no built column is edited directly. OpReset
// applies nothing: it is a marker for an opaque change that already
// happened (live) or that only the next checkpoint carries (replay).
func (x *relIndexes) applyMuts(muts []delta.Mutation) {
	for i := range muts {
		m := &muts[i]
		switch m.Op {
		case delta.OpInsert:
			ri := x.built(m.Rel)
			for r := 0; r < m.NumRows(); r++ {
				x.in.AddRow(m.Rel, m.Row(r)...)
				if ri != nil {
					ri.link(m.Row(r))
				}
			}
		case delta.OpDelete:
			ri := x.built(m.Rel)
			for r := 0; r < m.NumRows(); r++ {
				if ri == nil {
					x.in.DeleteRow(m.Rel, m.Row(r)...)
				} else {
					ri.deleteAll(m.Row(r))
				}
			}
		}
	}
}

// link adds the relation's new last row, row, to every built column.
func (ri *relIndex) link(row []values.Value) {
	p := int32(ri.rel.Len() - 1)
	for c, ci := range ri.cols {
		if ci != nil {
			ci.add(row[c], p)
		}
	}
}

// deleteAll removes every occurrence of row from the relation, each
// found through the index and swap-removed, re-pointing the row that
// moves into the hole in every built column.
func (ri *relIndex) deleteAll(row []values.Value) {
	for {
		p := ri.find(row)
		if p < 0 {
			return
		}
		for c, ci := range ri.cols {
			if ci != nil {
				ci.unlink(row[c], p)
			}
		}
		moved := ri.rel.SwapRemove(int(p))
		var now []values.Value
		if moved >= 0 {
			now = ri.rel.Tuple(int(p))
		}
		for c, ci := range ri.cols {
			if ci == nil {
				continue
			}
			if moved >= 0 {
				ci.relink(now[c], int32(moved), p)
			}
			ci.next = ci.next[:len(ci.next)-1]
		}
	}
}

// find returns the position of a row equal to row, walking the shortest
// chain any built column offers, or -1.
func (ri *relIndex) find(row []values.Value) int32 {
	var best *colIndex
	var first int32
	bestN := 0
	for c, ci := range ri.cols {
		if ci == nil {
			continue
		}
		f, n := ci.Lookup(row[c])
		if n == 0 {
			return -1
		}
		if best == nil || n < bestN {
			best, first, bestN = ci, f, n
		}
	}
	for p := first; p >= 0; p = best.Next(p) {
		if slices.Equal(ri.rel.Tuple(int(p)), row) {
			return p
		}
	}
	return -1
}

// buildColIndex indexes column col of r.
func buildColIndex(r *database.Relation, col int) *colIndex {
	n := r.Len()
	ci := &colIndex{keys: tupleidx.New(1, n/4), next: make([]int32, 0, n)}
	for p := 0; p < n; p++ {
		ci.add(r.Tuple(p)[col], int32(p))
	}
	return ci
}

// Lookup implements delta.Column.
func (ci *colIndex) Lookup(v values.Value) (first int32, n int) {
	id, ok := ci.keys.Lookup([]values.Value{v})
	if !ok {
		return -1, 0
	}
	return ci.first[id], int(ci.count[id])
}

// Next implements delta.Column.
func (ci *colIndex) Next(p int32) int32 { return ci.next[p] }

// add pushes the new last row p, holding v, onto v's chain.
func (ci *colIndex) add(v values.Value, p int32) {
	id, added := ci.keys.Insert([]values.Value{v})
	if added {
		ci.first = append(ci.first, -1)
		ci.count = append(ci.count, 0)
	}
	ci.next = append(ci.next, ci.first[id])
	ci.first[id] = p
	ci.count[id]++
}

// unlink takes row p out of v's chain.
func (ci *colIndex) unlink(v values.Value, p int32) {
	id, _ := ci.keys.Lookup([]values.Value{v})
	ci.count[id]--
	if ci.first[id] == p {
		ci.first[id] = ci.next[p]
		return
	}
	q := ci.first[id]
	for ci.next[q] != p {
		q = ci.next[q]
	}
	ci.next[q] = ci.next[p]
}

// relink records that the row at from, holding v, now sits at to.
func (ci *colIndex) relink(v values.Value, from, to int32) {
	id, _ := ci.keys.Lookup([]values.Value{v})
	ci.next[to] = ci.next[from]
	if ci.first[id] == from {
		ci.first[id] = to
		return
	}
	q := ci.first[id]
	for ci.next[q] != from {
		q = ci.next[q]
	}
	ci.next[q] = to
}
