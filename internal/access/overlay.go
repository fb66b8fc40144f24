package access

import (
	"fmt"
	"sort"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// This file makes the built structures merge-aware: an Overlay combines
// one immutable base structure with a small sorted list of answer-level
// edits (answers that appeared since the base was built, answers that
// disappeared) and answers Access/Rank over the merged set in
// O(log d + log n) — one binary search over the d edits, one probe of
// the base — instead of forcing the O(n log n) re-preprocess the write
// path used to pay on every mutation.
//
// The core bookkeeping: for any tuple t, its merged rank is
//
//	mr(t) = baseRank(t) + adds<(t) − dels<(t)
//
// where baseRank comes from the base's own Rank and the two counts are
// prefix sums over the edit list sorted in the base's realized total
// order. Each edit event precomputes its own merged rank at
// construction, so Access(k) is: find the event run around k, emit the
// added answer occupying slot k if there is one (within a run of equal
// merged ranks the added answer is provably the last event), otherwise
// shift k by the run's cumulative offset and probe the base.

// BaseOfLex reports whether an overlay can merge over a layered
// structure, handing it back when it can. It cannot over Boolean queries
// (no answer tuples to edit) or FD-extended builds (their answers live
// in the extended space). Every FD-free row array is eligible as is.
func BaseOfLex(la *Lex) (*Lex, bool) {
	return la, !la.boolean && la.extend == nil && la.project == nil
}

// ovEvent is one edit in the base's realized order: mr is the answer's
// merged rank, cum the adds-minus-dels offset over events up to and
// including this one.
type ovEvent struct {
	a   order.Answer
	add bool
	mr  int64
	cum int64
}

// Overlay is an immutable merged view: the base structure plus a sorted
// edit list. Like the base structures it is safe for concurrent use.
type Overlay struct {
	b      Structure
	head   []cq.VarID // head variable ids, for projecting added answers
	events []ovEvent
	total  int64
	adds   int
}

// NewOverlay builds the merged view for the given edits. Every add must
// be absent from the base and every del present in it, and no answer
// may appear twice across the two lists; violations are construction
// errors (they indicate a broken delta computation, not bad user
// input).
func NewOverlay(b Structure, adds, dels []order.Answer) (*Overlay, error) {
	events := make([]ovEvent, 0, len(adds)+len(dels))
	for _, a := range adds {
		r, exact := b.Rank(a)
		if exact {
			return nil, fmt.Errorf("access: overlay add already in base")
		}
		events = append(events, ovEvent{a: a, add: true, mr: r})
	}
	for _, d := range dels {
		r, exact := b.Rank(d)
		if !exact {
			return nil, fmt.Errorf("access: overlay delete not in base")
		}
		events = append(events, ovEvent{a: d, mr: r})
	}
	sort.SliceStable(events, func(i, j int) bool {
		return b.Compare(events[i].a, events[j].a) < 0
	})
	// mr currently holds the base rank; fold in the running offset.
	var off int64
	for i := range events {
		if i > 0 && b.Compare(events[i-1].a, events[i].a) == 0 {
			return nil, fmt.Errorf("access: duplicate overlay edit")
		}
		events[i].mr += off
		if events[i].add {
			off++
		} else {
			off--
		}
		events[i].cum = off
	}
	total := b.Total() + off
	if total < 0 {
		return nil, fmt.Errorf("access: overlay deletes more answers than the base holds")
	}
	return &Overlay{b: b, head: b.Head(), events: events, total: total, adds: len(adds)}, nil
}

// Base returns the structure the overlay merges over.
func (o *Overlay) Base() Structure { return o.b }

// Head returns the base's head variables.
func (o *Overlay) Head() []cq.VarID { return o.head }

// Compare is the base's realized total order, which the edits are
// sorted by.
func (o *Overlay) Compare(a, b order.Answer) int { return o.b.Compare(a, b) }

// GetBuf borrows a probe buffer from the base and PutBuf returns it.
func (o *Overlay) GetBuf() *LexBuf { return o.b.GetBuf() }

// PutBuf returns a buffer borrowed with GetBuf.
func (o *Overlay) PutBuf(buf *LexBuf) { o.b.PutBuf(buf) }

// Total returns the merged answer count.
func (o *Overlay) Total() int64 { return o.total }

// Edits returns the number of edit events the overlay carries (its d).
func (o *Overlay) Edits() int { return len(o.events) }

// Adds returns how many of the edits are additions.
func (o *Overlay) Adds() int { return o.adds }

// locate returns the index of the first event with merged rank > k.
func (o *Overlay) locate(k int64) int {
	return sort.Search(len(o.events), func(i int) bool { return o.events[i].mr > k })
}

// slot resolves merged position k — two binary searches per probe: this
// one over the edits, then the base's own — to the added answer
// occupying it, or else to the base position that serves it.
func (o *Overlay) slot(k int64) (added order.Answer, baseK int64, err error) {
	if k < 0 || k >= o.total {
		return nil, 0, fmt.Errorf("access: overlay index %d of %d: %w", k, o.total, ErrOutOfBound)
	}
	j := o.locate(k)
	if j == 0 {
		return nil, k, nil
	}
	if e := &o.events[j-1]; e.mr == k && e.add {
		return e.a, 0, nil
	}
	return nil, k - o.events[j-1].cum, nil
}

// Access returns the k-th merged answer.
func (o *Overlay) Access(k int64) (order.Answer, error) {
	a, baseK, err := o.slot(k)
	if a != nil || err != nil {
		return a, err
	}
	return o.b.Access(baseK)
}

// AccessInto is Access through a buffer borrowed with GetBuf.
func (o *Overlay) AccessInto(buf *LexBuf, k int64) (order.Answer, error) {
	a, baseK, err := o.slot(k)
	if a != nil || err != nil {
		return a, err
	}
	return o.b.AccessInto(buf, baseK)
}

// AppendTuple appends the head projection of the k-th merged answer to
// dst; like the base's, it allocates only when dst lacks capacity.
func (o *Overlay) AppendTuple(dst []values.Value, k int64) ([]values.Value, error) {
	a, baseK, err := o.slot(k)
	switch {
	case err != nil:
		return dst, err
	case a != nil:
		return appendHead(dst, o.head, a), nil
	}
	return o.b.AppendTuple(dst, baseK)
}

// AppendRange appends the head projections of merged answers
// k0 ≤ k < k1 to dst, splitting the range into base segments (served by
// the base's batched path) and interleaved added answers.
func (o *Overlay) AppendRange(dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if k0 < 0 || k1 < k0 || k1 > o.total {
		return dst, fmt.Errorf("access: overlay range [%d, %d) of %d: %w", k0, k1, o.total, ErrOutOfBound)
	}
	k := k0
	j := o.locate(k)
	var err error
	for k < k1 {
		if j > 0 && o.events[j-1].mr == k && o.events[j-1].add {
			dst = appendHead(dst, o.head, o.events[j-1].a)
			k++
			for j < len(o.events) && o.events[j].mr <= k {
				j++
			}
			continue
		}
		var off int64
		if j > 0 {
			off = o.events[j-1].cum
		}
		end := k1
		if j < len(o.events) && o.events[j].mr < end {
			end = o.events[j].mr
		}
		if dst, err = o.b.AppendRange(dst, k-off, end-off); err != nil {
			return dst, err
		}
		k = end
		for j < len(o.events) && o.events[j].mr <= k {
			j++
		}
	}
	return dst, nil
}

// Rank returns the number of merged answers strictly preceding the
// tuple in the realized order, and whether the tuple is itself a merged
// answer. The tuple must assign every head variable.
func (o *Overlay) Rank(a order.Answer) (int64, bool) {
	br, exact := o.b.Rank(a)
	idx := sort.Search(len(o.events), func(i int) bool { return o.b.Compare(o.events[i].a, a) >= 0 })
	var off int64
	if idx > 0 {
		off = o.events[idx-1].cum
	}
	member := exact
	if idx < len(o.events) && o.b.Compare(o.events[idx].a, a) == 0 {
		member = o.events[idx].add
	}
	return br + off, member
}
