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
