// Package baseline provides a naive conjunctive-query evaluator: full
// materialization of the answer set by backtracking join, plus sorting.
//
// It serves two purposes: (1) as the correctness oracle for every
// algorithm in this repository (property tests compare against it on
// small instances), and (2) as the materialize-then-sort baseline the
// benchmarks compare direct access against — for intractable (query,
// order) pairs it is essentially the best one can do, and its cost scales
// with |Q(I)| rather than with n.
package baseline

import (
	"sort"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// AllAnswers materializes Q(I): the set of assignments to the free
// variables (VarID-indexed, deduplicated). Works for any CQ, cyclic or
// not, with self-joins and repeated variables.
func AllAnswers(q *cq.Query, in *database.Instance) []order.Answer {
	nv := q.NumVars()
	assignment := make([]values.Value, nv)
	assigned := make([]bool, nv)

	// Order atoms so that each one (after the first) shares variables
	// with previously joined atoms when possible: cheap heuristic that
	// keeps the backtracking join from degenerating into a blind product.
	atomOrder := planAtomOrder(q)

	seen := tupleidx.New(len(q.Head), 0)
	headBuf := make([]values.Value, len(q.Head))
	var answers []order.Answer

	// Q(I) is a set, so the join walks each relation's distinct rows: a
	// repeated row would repeat the whole walk below it and find only
	// answers already seen.
	distinct := make(map[string][]int)
	for _, atom := range q.Atoms {
		rel := in.Relation(atom.Rel)
		if _, ok := distinct[atom.Rel]; ok || rel == nil {
			continue
		}
		idx := tupleidx.New(rel.Arity(), rel.Len())
		var rows []int
		for i := 0; i < rel.Len(); i++ {
			if _, added := idx.Insert(rel.Tuple(i)); added {
				rows = append(rows, i)
			}
		}
		distinct[atom.Rel] = rows
	}

	var rec func(step int)
	rec = func(step int) {
		if step == len(atomOrder) {
			for i, v := range q.Head {
				headBuf[i] = assignment[v]
			}
			if _, added := seen.Insert(headBuf); !added {
				return
			}
			ans := make(order.Answer, nv)
			for _, v := range q.Head {
				ans[v] = assignment[v]
			}
			answers = append(answers, ans)
			return
		}
		atom := q.Atoms[atomOrder[step]]
		rel := in.Relation(atom.Rel)
		if rel == nil {
			return
		}
	tuples:
		for _, i := range distinct[atom.Rel] {
			t := rel.Tuple(i)
			var newly []cq.VarID
			for pos, v := range atom.Vars {
				val := values.Value(0)
				if rel.Arity() > 0 {
					val = t[pos]
				}
				if assigned[v] {
					if assignment[v] != val {
						for _, u := range newly {
							assigned[u] = false
						}
						continue tuples
					}
				} else {
					assigned[v] = true
					assignment[v] = val
					newly = append(newly, v)
				}
			}
			rec(step + 1)
			for _, u := range newly {
				assigned[u] = false
			}
		}
	}
	rec(0)
	return answers
}

func planAtomOrder(q *cq.Query) []int {
	n := len(q.Atoms)
	used := make([]bool, n)
	var orderOut []int
	var bound uint64
	for len(orderOut) < n {
		best := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if best == -1 || (q.AtomVars(i)&bound != 0 && q.AtomVars(best)&bound == 0) {
				best = i
			}
		}
		used[best] = true
		orderOut = append(orderOut, best)
		bound |= q.AtomVars(best)
	}
	return orderOut
}

// Count returns |Q(I)|.
func Count(q *cq.Query, in *database.Instance) int {
	return len(AllAnswers(q, in))
}

// SortedByLex materializes Q(I) sorted by the given lexicographic order;
// components missing from the order are tie-broken by ascending head
// order so the result is deterministic.
func SortedByLex(q *cq.Query, in *database.Instance, l order.Lex) []order.Answer {
	answers := AllAnswers(q, in)
	sort.Slice(answers, func(i, j int) bool {
		if c := l.Compare(answers[i], answers[j]); c != 0 {
			return c < 0
		}
		return headLess(q, answers[i], answers[j])
	})
	return answers
}

// SortedBySum materializes Q(I) sorted by total weight, ties broken by
// ascending head order.
func SortedBySum(q *cq.Query, in *database.Instance, w order.Sum) []order.Answer {
	answers := AllAnswers(q, in)
	weights := make([]float64, len(answers))
	for i, a := range answers {
		weights[i] = w.AnswerWeight(q, a)
	}
	idx := make([]int, len(answers))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		if weights[idx[i]] != weights[idx[j]] {
			return weights[idx[i]] < weights[idx[j]]
		}
		return headLess(q, answers[idx[i]], answers[idx[j]])
	})
	out := make([]order.Answer, len(answers))
	for i, k := range idx {
		out[i] = answers[k]
	}
	return out
}

func headLess(q *cq.Query, a, b order.Answer) bool {
	for _, v := range q.Head {
		if a[v] != b[v] {
			return a[v] < b[v]
		}
	}
	return false
}
