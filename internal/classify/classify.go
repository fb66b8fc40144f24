// Package classify implements the paper's decidable dichotomies. Given a
// CQ, an order (LEX or SUM), and optionally a set of unary FDs, it
// decides whether ranked direct access / selection meets the paper's
// tractability yardstick, and produces the certificate the corresponding
// hardness proof is built from when it does not.
//
//   - Theorem 3.3 / 4.1: direct access by (partial) LEX is tractable in
//     ⟨n log n, log n⟩ iff the CQ is free-connex, L-connex, and has no
//     disruptive trio w.r.t. L.
//   - Theorem 6.1: selection by LEX is tractable in ⟨1, n⟩ iff the CQ is
//     free-connex.
//   - Theorem 5.1: direct access by SUM is tractable in ⟨n log n, 1⟩ iff
//     the CQ is acyclic and one atom contains all free variables.
//   - Theorem 7.3: selection by SUM is tractable in ⟨1, n log n⟩ iff the
//     CQ is free-connex and fmh(Q) ≤ 2.
//   - Theorems 8.9/8.10/8.21/8.22: with unary FDs, the same criteria
//     applied to the FD-extension Q⁺ and the FD-reordered order L⁺.
//
// §8 is written once: every dichotomy takes the FD set and decides on
// the extension. With no FDs the extension is the identity (Q⁺ = Q,
// L⁺ = L), so an FD-free call is the nil case, not a second function.
//
// Intractability statements assume the paper's fine-grained hypotheses
// and, for the hard side, self-join-freeness; verdicts carry both caveats.
package classify

import (
	"fmt"
	"strings"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/hypergraph"
	"rankedaccess/internal/order"
)

// Verdict is the outcome of one classification.
type Verdict struct {
	// Tractable reports the side of the dichotomy.
	Tractable bool
	// Bound is the complexity guarantee ⟨preprocessing, access⟩ on the
	// tractable side, or the refuted bound on the intractable side.
	Bound string
	// Reason explains the verdict in terms of the paper's criteria.
	Reason string
	// Hypotheses lists the fine-grained hypotheses the hard side relies on.
	Hypotheses []string
	// SelfJoinCaveat is set when the query has self-joins and the verdict
	// is "intractable": the paper's hardness proofs require
	// self-join-freeness, so hardness is conjectured, not proven.
	SelfJoinCaveat bool

	// Optional certificates (nil/empty when not applicable):
	// Trio is a disruptive trio (variable names).
	Trio []string
	// SPath is a free-path or L-path witnessing non-connexity.
	SPath []string
}

func (v Verdict) String() string {
	side := "TRACTABLE"
	if !v.Tractable {
		side = "INTRACTABLE"
	}
	s := side + " " + v.Bound + ": " + v.Reason
	if len(v.Hypotheses) > 0 {
		s += " [assuming " + strings.Join(v.Hypotheses, ", ") + "]"
	}
	if v.SelfJoinCaveat {
		s += " (query has self-joins: hardness side not proven by the paper)"
	}
	return s
}

// structure bundles the hypergraph views used by all criteria.
type structure struct {
	h    hypergraph.Hypergraph
	free hypergraph.VSet
}

func structOf(q *cq.Query) structure {
	return structure{h: hypergraph.New(q.EdgeSets()), free: q.Free()}
}

func (s structure) acyclic() bool    { return s.h.Acyclic() }
func (s structure) freeConnex() bool { return s.h.SConnex(s.free) }

func names(q *cq.Query, ids []int) []string {
	out := make([]string, len(ids))
	for i, v := range ids {
		out[i] = q.VarName(cq.VarID(v))
	}
	return out
}

func lexIDs(l order.Lex) []int {
	out := make([]int, len(l.Entries))
	for i, e := range l.Entries {
		out[i] = int(e.Var)
	}
	return out
}

func caveat(q *cq.Query) bool { return !q.IsSelfJoinFree() }

// WithFDs is the FD-extension a dichotomy decided on, which the
// algorithms then run on.
type WithFDs struct {
	Ext *fd.Extension
	// LPlus is the FD-reordered order (only for LEX problems).
	LPlus order.Lex
}

// onExtension applies a criterion to the FD-extension of (q, l) under
// fds; note says so in the reason when there is an extension to speak
// of.
func onExtension(q *cq.Query, l order.Lex, fds fd.Set, note string, criterion func(*cq.Query, order.Lex) Verdict) (Verdict, WithFDs) {
	ext := fd.Extend(q, fds)
	w := WithFDs{Ext: ext, LPlus: ext.ReorderLex(l)}
	v := criterion(ext.Query, w.LPlus)
	if len(fds) > 0 {
		v.Reason = note + v.Reason
	}
	return v, w
}

// DirectAccessLex classifies direct access by a (possibly partial)
// lexicographic order (Theorems 3.3 and 4.1; under unary FDs Theorem
// 8.21: the same criteria applied to Q⁺ and L⁺).
func DirectAccessLex(q *cq.Query, l order.Lex, fds fd.Set) (Verdict, WithFDs) {
	return onExtension(q, l, fds, "on the FD-extension Q⁺ with reordered order L⁺: ", directAccessLex)
}

func directAccessLex(q *cq.Query, l order.Lex) Verdict {
	if err := l.Validate(q); err != nil {
		return Verdict{Bound: "-", Reason: "invalid order: " + err.Error()}
	}
	s := structOf(q)
	if !s.acyclic() {
		return Verdict{
			Bound:      "⟨n polylog n, polylog n⟩",
			Reason:     "the query is cyclic; even Boolean evaluation is super-quasilinear",
			Hypotheses: []string{"HYPERCLIQUE"}, SelfJoinCaveat: caveat(q),
		}
	}
	if !s.freeConnex() {
		path := s.h.FindSPath(s.free)
		return Verdict{
			Bound:      "⟨n polylog n, polylog n⟩",
			Reason:     "the query is acyclic but not free-connex; enumeration is already hard",
			Hypotheses: []string{"sparseBMM"}, SelfJoinCaveat: caveat(q),
			SPath: names(q, path),
		}
	}
	lset := hypergraph.VSet(l.VarSet())
	if !s.h.SConnex(lset) {
		path := s.h.FindSPath(lset)
		return Verdict{
			Bound:      "⟨n polylog n, polylog n⟩",
			Reason:     "the query is not L-connex for the partial order L",
			Hypotheses: []string{"sparseBMM"}, SelfJoinCaveat: caveat(q),
			SPath: names(q, path),
		}
	}
	if trio, found := s.h.FindDisruptiveTrio(lexIDs(l)); found {
		return Verdict{
			Bound:      "⟨n polylog n, polylog n⟩",
			Reason:     "disruptive trio with respect to L",
			Hypotheses: []string{"sparseBMM"}, SelfJoinCaveat: caveat(q),
			Trio: names(q, []int{trio.V1, trio.V2, trio.V3}),
		}
	}
	return Verdict{
		Tractable: true,
		Bound:     "⟨n log n, log n⟩",
		Reason:    "free-connex, L-connex, and no disruptive trio w.r.t. L",
	}
}

// SelectionLex classifies selection by a lexicographic order
// (Theorem 6.1): the order itself is irrelevant; only free-connexity
// matters (under unary FDs Theorem 8.22: free-connexity of Q⁺).
func SelectionLex(q *cq.Query, l order.Lex, fds fd.Set) (Verdict, WithFDs) {
	return onExtension(q, l, fds, "on the FD-extension Q⁺: ", selectionLex)
}

func selectionLex(q *cq.Query, l order.Lex) Verdict {
	if err := l.Validate(q); err != nil {
		return Verdict{Bound: "-", Reason: "invalid order: " + err.Error()}
	}
	s := structOf(q)
	if !s.acyclic() {
		return Verdict{
			Bound:      "⟨1, n polylog n⟩",
			Reason:     "the query is cyclic",
			Hypotheses: []string{"HYPERCLIQUE"}, SelfJoinCaveat: caveat(q),
		}
	}
	if !s.freeConnex() {
		path := s.h.FindSPath(s.free)
		return Verdict{
			Bound:      "⟨1, n polylog n⟩",
			Reason:     "the query is acyclic but not free-connex; counting is already hard",
			Hypotheses: []string{"SETH"}, SelfJoinCaveat: caveat(q),
			SPath: names(q, path),
		}
	}
	return Verdict{
		Tractable: true,
		Bound:     "⟨1, n⟩",
		Reason:    "free-connex (selection by LEX is tractable for every lexicographic order)",
	}
}

// DirectAccessSum classifies direct access by SUM (Theorem 5.1; under
// unary FDs Theorem 8.9: the criterion applied to Q⁺).
func DirectAccessSum(q *cq.Query, fds fd.Set) (Verdict, WithFDs) {
	return onExtension(q, order.Lex{}, fds, "on the FD-extension Q⁺: ", directAccessSum)
}

func directAccessSum(q *cq.Query, _ order.Lex) Verdict {
	s := structOf(q)
	if !s.acyclic() {
		return Verdict{
			Bound:      "⟨n polylog n, polylog n⟩",
			Reason:     "the query is cyclic",
			Hypotheses: []string{"HYPERCLIQUE"}, SelfJoinCaveat: caveat(q),
		}
	}
	for _, e := range s.h.Edges {
		if hypergraph.Subset(s.free, e) {
			return Verdict{
				Tractable: true,
				Bound:     "⟨n log n, 1⟩",
				Reason:    "acyclic and one atom contains all free variables (α_free ≤ 1)",
			}
		}
	}
	alpha := hypergraph.Card(s.h.MaxIndependent(s.free))
	bound := "⟨n^(2-ε), n^(1-ε)⟩"
	if alpha >= 3 {
		bound = "⟨n^(2-ε), n^(2-ε)⟩"
	}
	return Verdict{
		Bound: bound,
		Reason: fmt.Sprintf("no atom contains all free variables (α_free = %d ≥ 2); "+
			"direct access would solve 3SUM subquadratically", alpha),
		Hypotheses: []string{"3SUM"}, SelfJoinCaveat: caveat(q),
	}
}

// SelectionSum classifies selection by SUM (Theorem 7.3; under unary
// FDs Theorem 8.10: the criterion applied to Q⁺).
func SelectionSum(q *cq.Query, fds fd.Set) (Verdict, WithFDs) {
	return onExtension(q, order.Lex{}, fds, "on the FD-extension Q⁺: ", selectionSum)
}

func selectionSum(q *cq.Query, _ order.Lex) Verdict {
	s := structOf(q)
	if !s.acyclic() {
		return Verdict{
			Bound:      "⟨1, n polylog n⟩",
			Reason:     "the query is cyclic",
			Hypotheses: []string{"HYPERCLIQUE"}, SelfJoinCaveat: caveat(q),
		}
	}
	if !s.freeConnex() {
		path := s.h.FindSPath(s.free)
		return Verdict{
			Bound:      "⟨1, n polylog n⟩",
			Reason:     "the query is acyclic but not free-connex",
			Hypotheses: []string{"SETH"}, SelfJoinCaveat: caveat(q),
			SPath: names(q, path),
		}
	}
	fmh := s.h.Restrict(s.free).MH()
	if fmh <= 2 {
		return Verdict{
			Tractable: true,
			Bound:     "⟨1, n log n⟩",
			Reason:    fmt.Sprintf("free-connex with fmh = %d ≤ 2 (sorted-matrix selection applies)", fmh),
		}
	}
	v := Verdict{
		Bound:      "⟨1, n polylog n⟩",
		Reason:     fmt.Sprintf("fmh = %d > 2 free-maximal hyperedges", fmh),
		Hypotheses: []string{"3SUM", "HYPERCLIQUE"}, SelfJoinCaveat: caveat(q),
	}
	// Certificate per Lemma 7.12: α_free ≥ 3, or a chordless 4-path in
	// the contraction of the free-restricted hypergraph.
	alpha := hypergraph.Card(s.h.MaxIndependent(s.free))
	if alpha >= 3 {
		v.Reason += fmt.Sprintf("; α_free = %d ≥ 3", alpha)
	} else if p := s.h.Restrict(s.free).FindChordlessPath4(); p != nil {
		v.SPath = names(q, p)
		v.Reason += "; chordless 4-path " + strings.Join(v.SPath, "–")
	}
	return v
}
