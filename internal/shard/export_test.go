package shard

import "context"

// SplitterTable returns the handle's splitter table as stored: the
// global ranks, the owners and the flat P local ranks per splitter.
func SplitterTable(h *Handle) (sums []int64, owner []int, ranks []int64) {
	return h.split.sums, h.split.owner, h.split.ranks
}

// SequentialSplitters prices the handle's splitter table again in ONE
// lane — the fill without lanes — and returns it, leaving the handle's
// own table in place.
func SequentialSplitters(h *Handle) (sums []int64, owner []int, ranks []int64, err error) {
	kept := h.split
	defer func() { h.split = kept }()
	err = h.fillSplitters(context.Background(), make([]int, len(h.totals)))
	sums, owner, ranks = SplitterTable(h)
	return sums, owner, ranks, err
}

// RangeSlack and MaxOwnedRange size a range merge's remote windows.
const (
	RangeSlack    = rangeSlack
	MaxOwnedRange = maxOwnedRange
)

// ThinSplitters keeps every n-th splitter of the handle's table: as
// sparse next to a test's windows as a full table is next to a
// benchmark's on a billion answers.
func ThinSplitters(h *Handle, n int) {
	p := len(h.totals)
	var t splitters
	for i := n - 1; i < len(h.split.sums); i += n {
		t.sums, t.owner = append(t.sums, h.split.sums[i]), append(t.owner, h.split.owner[i])
		t.ranks = append(t.ranks, h.split.ranks[i*p:(i+1)*p]...)
	}
	h.split = t
}
