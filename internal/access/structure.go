package access

import (
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// Structure is the one contract every built structure answers by (see
// the package comment): *Lex, *Sum, *Materialized and *Overlay
// implement it natively, and nothing outside this package needs to know
// which of them it holds. Implementations are immutable and safe for
// concurrent use; a probe buffer is not.
type Structure interface {
	// Total returns |Q(I)|.
	Total() int64
	// Head returns the head variables AppendTuple and AppendRange
	// project answers onto.
	Head() []cq.VarID
	// Access returns the k-th answer in the realized order, or an error
	// wrapping ErrOutOfBound. The answer is the caller's to keep (but
	// not to mutate: it may be the structure's own storage).
	Access(k int64) (order.Answer, error)
	// GetBuf borrows a probe buffer for AccessInto and PutBuf returns
	// it; nil for structures that probe without scratch. A buffer that
	// is never returned is garbage, not a leak.
	GetBuf() *LexBuf
	PutBuf(*LexBuf)
	// AccessInto is Access without the copy: the answer may alias buf
	// or the structure's storage, and is valid until buf's next use.
	// Probing consecutive ranks through one buf is a scan (see LexBuf).
	AccessInto(buf *LexBuf, k int64) (order.Answer, error)
	// AppendTuple appends the head projection of the k-th answer to dst,
	// allocating only when dst lacks capacity.
	AppendTuple(dst []values.Value, k int64) ([]values.Value, error)
	// AppendRange is AppendTuple for every k0 ≤ k < k1, with the per-row
	// loop inside the structure: one dynamic call per operation. The
	// window is validated before the first row: k0 < 0, k1 < k0 or
	// k1 > Total() is an error wrapping ErrOutOfBound and appends
	// nothing; k0 == k1 inside the bounds appends nothing and succeeds.
	AppendRange(dst []values.Value, k0, k1 int64) ([]values.Value, error)
	// Rank returns the number of answers strictly preceding the tuple in
	// the realized order, and whether the tuple is itself an answer. The
	// tuple must assign every head variable; it need not be an answer.
	Rank(a order.Answer) (int64, bool)
	// Compare is the realized total order Access enumerates and Rank
	// searches.
	Compare(a, b order.Answer) int
}

// A method drifting off one implementation fails the build here, not a
// shard test.
var (
	_ Structure = (*Lex)(nil)
	_ Structure = (*Sum)(nil)
	_ Structure = (*Materialized)(nil)
	_ Structure = (*Overlay)(nil)
)

// Inverted is Algorithm 2 over any structure: the index of an answer in
// the realized order, ErrNotAnAnswer when the tuple is not an answer.
func Inverted(s Structure, a order.Answer) (int64, error) {
	k, exact := s.Rank(a)
	if !exact {
		return 0, ErrNotAnAnswer
	}
	return k, nil
}

// appendHead appends a's projection onto the head variables to dst.
func appendHead(dst []values.Value, head []cq.VarID, a order.Answer) []values.Value {
	for _, v := range head {
		dst = append(dst, a[v])
	}
	return dst
}
