package access

import (
	"context"

	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
)

// BuildLexFD constructs a direct-access structure for q under unary FDs
// (Theorem 8.21): the layered structure is built for the FD-extension Q⁺
// over the extended instance I⁺ with the reordered order L⁺, which by
// Lemma 8.16 sorts Q⁺(I⁺) exactly as L sorts Q(I); answers are projected
// back to q's free variables on the way out.
//
// The instance must satisfy the FDs (checked; a violation is an error).
// Without FDs it is BuildLex.
func BuildLexFD(q *cq.Query, in *database.Instance, l order.Lex, fds fd.Set) (*Lex, error) {
	return BuildLexFDCtx(context.Background(), q, in, l, fds)
}

// BuildLexFDCtx is BuildLexFD with cancellation, with the same wave
// granularity as BuildLexCtx.
func BuildLexFDCtx(ctx context.Context, q *cq.Query, in *database.Instance, l order.Lex, fds fd.Set) (*Lex, error) {
	if len(fds) == 0 {
		return BuildLexCtx(ctx, q, in, l)
	}
	verdict, w := classify.DirectAccessLex(q, l, fds)
	if !verdict.Tractable {
		return nil, &IntractableError{Verdict: verdict}
	}
	if err := fds.Check(q, in); err != nil {
		return nil, err
	}
	iplus, err := w.Ext.ExtendInstance(q, in)
	if err != nil {
		return nil, err
	}
	la, err := buildLayered(ctx, w.Ext.Query, iplus, w.LPlus)
	if err != nil {
		return nil, err
	}
	extender, err := w.Ext.AnswerExtender(q, in)
	if err != nil {
		return nil, err
	}
	orig := q
	la.Query = orig
	la.project = func(a order.Answer) order.Answer { return fd.ProjectAnswer(orig, a) }
	la.extend = func(a order.Answer) (order.Answer, bool) { return extender(a) }
	return la, nil
}
