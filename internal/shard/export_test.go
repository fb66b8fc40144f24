package shard

import (
	"context"
	"sync/atomic"

	"rankedaccess/internal/access"
	"rankedaccess/internal/order"
)

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

// RefillBoundaries reads h's splitter table again off the groups of the
// owned builds, which between them hold every shard, keeping at most
// rows splitters.
func RefillBoundaries(h *Handle, owned []*Owned, rows int) error {
	groups := make([]Groups, len(h.totals))
	for _, o := range owned {
		shards := o.Shards()
		for j, g := range o.Groups(shards) {
			groups[shards[j]] = g
		}
	}
	return h.fillBoundaries(groups, h.Completed.Entries[0].Dir, rows)
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

// CountRanks replaces o's structures with ones that count their Rank
// calls into n. A wrapped structure has no root layer to read groups
// off, so a handle over o is assembled before, not after.
func CountRanks(o *Owned, n *atomic.Int64) {
	for s, p := range o.parts {
		if p != nil {
			o.parts[s] = rankCounter{p, n}
		}
	}
}

type rankCounter struct {
	access.Structure
	n *atomic.Int64
}

func (c rankCounter) Rank(a order.Answer) (int64, bool) {
	c.n.Add(1)
	return c.Structure.Rank(a)
}
