// Package delta is the engine's write path: a per-relation write-ahead
// log of inserts and deletes, and the answer-level difference
// computation that lets a built access structure absorb those writes as
// a small sorted overlay instead of a full O(n log n) re-preprocess.
//
// The package has three parts:
//
//   - Mutation/Batch: the record types. A Batch is one atomic group of
//     relational writes stamped with the engine version (WAL sequence
//     number) it produced.
//   - Log: the bounded in-memory WAL tail. Readers holding a structure
//     built at version v ask Since(v) for everything that happened
//     after it; a truncated tail answers ok=false, which the engine
//     treats as "rebuild from scratch".
//   - WAL: the durable on-disk log (wal.go) with CRC-framed records and
//     a torn-tail-tolerant replay, composing with snapshots: checkpoint
//     = snapshot + WAL truncation, open = warm start + replay.
//
// Diff (eval.go) turns a span of batches into the answer-level edit the
// overlay needs: which answers appeared and which disappeared.
package delta

import (
	"fmt"
	"sync"

	"rankedaccess/internal/values"
)

// Op is the kind of one mutation.
type Op uint8

const (
	// OpInsert appends rows to a relation.
	OpInsert Op = 1
	// OpDelete removes every occurrence of each row from a relation.
	OpDelete Op = 2
	// OpReset is the marker an earlier engine logged for an opaque
	// change to a relation; Rows is empty. It stays decodable so an old
	// WAL still replays, as nothing: the change it marked was durable
	// only through a checkpoint. Nothing writes it any more, and the
	// engine's write path refuses it.
	OpReset Op = 3
)

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpReset:
		return "reset"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Mutation is one relational write: rows of one relation inserted or
// deleted (or an old WAL's reset marker). Rows is flat with stride
// Arity.
type Mutation struct {
	Op    Op
	Rel   string
	Arity int
	Rows  []values.Value
}

// NumRows returns the number of rows the mutation carries.
func (m *Mutation) NumRows() int {
	if m.Arity == 0 {
		return 0
	}
	return len(m.Rows) / m.Arity
}

// Row returns the i-th row as a capped subslice of the flat storage.
func (m *Mutation) Row(i int) []values.Value {
	return m.Rows[i*m.Arity : (i+1)*m.Arity : (i+1)*m.Arity]
}

// Validate checks internal consistency (flat length divides by arity,
// ops in range, reset carries no rows).
func (m *Mutation) Validate() error {
	switch m.Op {
	case OpInsert, OpDelete:
		if m.Arity <= 0 {
			return fmt.Errorf("delta: %s %s: arity %d", m.Op, m.Rel, m.Arity)
		}
		if len(m.Rows)%m.Arity != 0 {
			return fmt.Errorf("delta: %s %s: %d values do not divide into rows of arity %d", m.Op, m.Rel, len(m.Rows), m.Arity)
		}
	case OpReset:
		if len(m.Rows) != 0 {
			return fmt.Errorf("delta: reset %s carries rows", m.Rel)
		}
	default:
		return fmt.Errorf("delta: unknown op %d", m.Op)
	}
	if m.Rel == "" {
		return fmt.Errorf("delta: mutation without a relation")
	}
	return nil
}

// Batch is one atomic group of mutations. Seq is the engine version the
// batch produced: a structure built at version v reflects exactly the
// batches with Seq ≤ v.
type Batch struct {
	Seq  uint64
	Muts []Mutation
}

// Touches reports whether the batch writes any of the given relations.
func (b *Batch) Touches(rels map[string]bool) bool {
	for i := range b.Muts {
		if rels[b.Muts[i].Rel] {
			return true
		}
	}
	return false
}

// DefaultLogTail bounds the in-memory WAL tail when NewLog is given a
// non-positive limit: readers more than this many batches behind
// rebuild instead of catching up.
const DefaultLogTail = 4096

// Log is the bounded in-memory WAL tail. Appends and resets happen
// under the engine's exclusive lock; Since is called concurrently by
// readers, so the Log carries its own mutex.
type Log struct {
	mu      sync.Mutex
	base    uint64 // everything with Seq ≤ base has been dropped
	batches []Batch
	limit   int
}

// NewLog returns an empty log retaining at most limit batches
// (DefaultLogTail when limit ≤ 0).
func NewLog(limit int) *Log {
	if limit <= 0 {
		limit = DefaultLogTail
	}
	return &Log{limit: limit}
}

// Append records one batch. Seq must be strictly increasing; the oldest
// batches are dropped when the tail exceeds its limit.
func (l *Log) Append(b Batch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = append(l.batches, b)
	if over := len(l.batches) - l.limit; over > 0 {
		l.base = l.batches[over-1].Seq
		l.batches = append(l.batches[:0], l.batches[over:]...)
	}
}

// Since returns the batches with Seq > seq, oldest first. ok is false
// when the tail no longer reaches back to seq (dropped or reset): the
// caller cannot catch up incrementally and must rebuild.
func (l *Log) Since(seq uint64) ([]Batch, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.base {
		return nil, false
	}
	// Batches are sorted by Seq; find the first with Seq > seq.
	i := len(l.batches)
	for i > 0 && l.batches[i-1].Seq > seq {
		i--
	}
	out := make([]Batch, len(l.batches)-i)
	copy(out, l.batches[i:])
	return out, true
}

// Reset drops the whole tail and declares seq the new floor: any
// Since(v) with v < seq reports ok=false from here on. Used for
// discontinuities the log cannot express (snapshot restore).
func (l *Log) Reset(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base = seq
	l.batches = l.batches[:0]
}

// Last returns the highest appended Seq (or the reset floor).
func (l *Log) Last() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.batches); n > 0 {
		return l.batches[n-1].Seq
	}
	return l.base
}
