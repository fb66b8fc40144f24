// Package database provides relations and database instances.
//
// Tuples are stored flat (one []int64 backing array per relation, arity
// stride) so scans are cache-friendly and per-tuple allocation is avoided.
// All values are dictionary-encoded (see internal/values).
package database

import (
	"fmt"
	"slices"

	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// Relation is a bag of fixed-arity tuples of dictionary-encoded values.
type Relation struct {
	arity int
	data  []values.Value
}

// NewRelation returns an empty relation of the given arity. Arity 0 is
// allowed (a nullary relation holds zero or more empty tuples and acts as
// a Boolean).
func NewRelation(arity int) *Relation {
	if arity < 0 {
		panic("database: negative arity")
	}
	return &Relation{arity: arity}
}

// FromFlat builds a relation over an existing flat tuple array (stride
// arity; one sentinel value per tuple for arity 0). The slice is owned
// by the relation from here on.
func FromFlat(arity int, data []values.Value) (*Relation, error) {
	if arity < 0 {
		return nil, fmt.Errorf("database: negative arity %d", arity)
	}
	if arity > 0 && len(data)%arity != 0 {
		return nil, fmt.Errorf("database: %d values do not tile arity %d", len(data), arity)
	}
	return &Relation{arity: arity, data: data}, nil
}

// FromRows builds a relation from row slices (all must share one length).
func FromRows(rows [][]values.Value) *Relation {
	if len(rows) == 0 {
		panic("database: FromRows needs at least one row to infer arity; use NewRelation")
	}
	r := NewRelation(len(rows[0]))
	for _, row := range rows {
		r.Append(row...)
	}
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.arity == 0 {
		return len(r.data) // nullary: we store one sentinel value per tuple
	}
	return len(r.data) / r.arity
}

// Append adds one tuple.
func (r *Relation) Append(tuple ...values.Value) {
	if len(tuple) != r.arity {
		panic(fmt.Sprintf("database: append arity %d to relation of arity %d", len(tuple), r.arity))
	}
	if r.arity == 0 {
		r.data = append(r.data, 0)
		return
	}
	r.data = append(r.data, tuple...)
}

// RemoveAll deletes every occurrence of tuple from the bag, returning
// the number removed. Tuple order is not preserved (relations are bags;
// every consumer sorts or indexes independently): survivors are swapped
// into the holes, so the scan is O(n) regardless of match count.
func (r *Relation) RemoveAll(tuple []values.Value) int {
	if len(tuple) != r.arity {
		panic(fmt.Sprintf("database: remove arity %d from relation of arity %d", len(tuple), r.arity))
	}
	if r.arity == 0 {
		n := len(r.data)
		r.data = r.data[:0]
		return n
	}
	removed := 0
	n := r.Len()
	for i := 0; i < n; {
		match := true
		for j, v := range tuple {
			if r.data[i*r.arity+j] != v {
				match = false
				break
			}
		}
		if !match {
			i++
			continue
		}
		last := n - 1
		copy(r.data[i*r.arity:(i+1)*r.arity], r.data[last*r.arity:(last+1)*r.arity])
		r.data = r.data[:last*r.arity]
		n = last
		removed++
	}
	return removed
}

// SwapRemove deletes tuple i by moving the last tuple into its slot and
// returns the moved tuple's old position, or -1 when i was the last
// tuple and nothing moved. Callers that index tuple positions use the
// report to re-point the moved tuple.
func (r *Relation) SwapRemove(i int) (moved int) {
	n := r.Len()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("database: swap-remove tuple %d of %d", i, n))
	}
	last := n - 1
	moved = -1
	if i != last {
		copy(r.data[i*r.arity:(i+1)*r.arity], r.data[last*r.arity:(last+1)*r.arity])
		moved = last
	}
	if r.arity == 0 {
		r.data = r.data[:last]
	} else {
		r.data = r.data[:last*r.arity]
	}
	return moved
}

// Tuple returns a read-only view of tuple i (do not mutate or retain
// across appends).
func (r *Relation) Tuple(i int) []values.Value {
	if r.arity == 0 {
		return nil
	}
	return r.data[i*r.arity : (i+1)*r.arity : (i+1)*r.arity]
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	return &Relation{arity: r.arity, data: append([]values.Value(nil), r.data...)}
}

// Project returns a new relation with the given columns, in order.
// Duplicates are kept; ProjectDistinct drops them.
func (r *Relation) Project(cols []int) *Relation {
	out := NewRelation(len(cols))
	n := r.Len()
	if len(cols) == 0 {
		out.data = make([]values.Value, n)
		return out
	}
	out.data = make([]values.Value, 0, n*len(cols))
	for i := 0; i < n; i++ {
		t := r.Tuple(i)
		for _, c := range cols {
			out.data = append(out.data, t[c])
		}
	}
	return out
}

// ProjectDistinct is Project followed by Dedup without the copy between
// them: the projection is deduplicated in its own storage.
func (r *Relation) ProjectDistinct(cols []int) *Relation {
	out := r.Project(cols)
	out.distinct()
	return out
}

// Dedup returns the distinct tuples of r in ascending lexicographic
// order.
func (r *Relation) Dedup() *Relation {
	out := r.Clone()
	out.distinct()
	return out
}

// distinct sorts r's rows in place (tupleidx.SortRows) and keeps the
// first of every run of equal rows.
func (r *Relation) distinct() {
	if r.arity == 0 {
		r.data = r.data[:min(len(r.data), 1)]
		return
	}
	tupleidx.SortRows(r.data, r.arity, false)
	w := 0
	for i := 0; i < len(r.data); i += r.arity {
		row := r.data[i : i+r.arity]
		if w > 0 && slices.Equal(row, r.data[w-r.arity:w]) {
			continue
		}
		copy(r.data[w:], row)
		w += r.arity
	}
	r.data = r.data[:w]
}

// Filter returns the tuples satisfying pred.
func (r *Relation) Filter(pred func(t []values.Value) bool) *Relation {
	out := NewRelation(r.arity)
	n := r.Len()
	for i := 0; i < n; i++ {
		t := r.Tuple(i)
		if pred(t) {
			if r.arity == 0 {
				out.data = append(out.data, 0)
			} else {
				out.data = append(out.data, t...)
			}
		}
	}
	return out
}

// SortLex sorts tuples in place by columnwise ascending value order,
// operating directly on the flat storage (no per-tuple allocation;
// equal tuples are interchangeable, so stability is moot).
func (r *Relation) SortLex() {
	if r.arity == 0 {
		return
	}
	tupleidx.SortLexFlat(r.data, r.arity)
}

// Data returns the flat tuple storage (stride Arity). It is a mutable
// view for internal consumers that sort or scan in place; external code
// should treat it as read-only.
func (r *Relation) Data() []values.Value { return r.data }

// Semijoin keeps the tuples of r whose projection onto cols appears in
// the projection of s onto sCols. cols and sCols must have equal length.
func (r *Relation) Semijoin(cols []int, s *Relation, sCols []int) *Relation {
	if len(cols) != len(sCols) {
		panic("database: semijoin column count mismatch")
	}
	if len(cols) == 0 {
		// Degenerate: keep all of r iff s is non-empty.
		if s.Len() > 0 {
			return r.Clone()
		}
		return NewRelation(r.arity)
	}
	set := tupleidx.New(len(sCols), s.Len())
	sn := s.Len()
	for i := 0; i < sn; i++ {
		set.InsertCols(s.Tuple(i), sCols)
	}
	return r.Filter(func(t []values.Value) bool {
		_, ok := set.LookupCols(t, cols)
		return ok
	})
}

// Rows materializes all tuples (for tests and small outputs).
func (r *Relation) Rows() [][]values.Value {
	n := r.Len()
	out := make([][]values.Value, n)
	for i := 0; i < n; i++ {
		out[i] = append([]values.Value(nil), r.Tuple(i)...)
	}
	return out
}
