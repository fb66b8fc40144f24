package access

import (
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
)

// The total orders the row-array structures realize. Rank — "how many
// answers strictly precede this tuple" — is what makes structures
// horizontally mergeable: a sharded deployment answers global direct
// access by summing per-shard ranks (see internal/shard), and a
// coordinator that holds no structure merges by these same functions.

// compareHead compares two answers by ascending head values, the
// deterministic tie-break every materializing structure uses.
func compareHead(q *cq.Query, a, b order.Answer) int {
	for _, v := range q.Head {
		if a[v] != b[v] {
			if a[v] < b[v] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CompareLexTotal compares two answers in the total order realized by a
// lex materialization: the (possibly partial) requested order, ties
// broken by ascending head values.
func CompareLexTotal(q *cq.Query, l order.Lex, a, b order.Answer) int {
	if c := l.Compare(a, b); c != 0 {
		return c
	}
	return compareHead(q, a, b)
}

// CompareSumTotal compares two answers in the total order realized by a
// SUM structure: ascending weight, ties broken by ascending head values.
func CompareSumTotal(q *cq.Query, w order.Sum, a, b order.Answer) int {
	wa, wb := w.AnswerWeight(q, a), w.AnswerWeight(q, b)
	switch {
	case wa < wb:
		return -1
	case wa > wb:
		return 1
	}
	return compareHead(q, a, b)
}
