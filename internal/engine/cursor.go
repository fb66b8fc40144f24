package engine

import (
	"fmt"
	"io"
	"iter"

	"rankedaccess/internal/access"
	"rankedaccess/internal/values"
)

// cursorChunk is the batch width All, and Next on a sharded handle, use
// for their internal AccessRange calls: big enough to amortize
// per-range setup (shard rank search, probe pool round-trips), small
// enough to keep one reusable buffer.
const cursorChunk = 256

// Cursor is a stateful scan position over one prepared Handle. It
// answers Next/NextN probes via the handle's allocation-free access
// paths — a successor step per answer once the scan is under way, an
// O(log n) descent after a Seek — reusing the caller's destination
// buffers, so a steady-state Next performs zero allocations.
//
// A Cursor is NOT safe for concurrent use — it is one scan's state;
// open one cursor per goroutine (the underlying Handle is shared and
// concurrency-safe). A cursor scans the immutable epoch of the handle
// it was opened on: concurrent writes publish new epochs but never
// invalidate an in-progress scan, so a cursor opened before a write (or
// a background structure swap) streams its full pre-write result set
// unchanged.
type Cursor struct {
	h   *Handle
	pos int64

	// buf is the cursor-owned probe scratch for single-step Next on an
	// unsharded structure, borrowed from it on first use and never
	// handed back (nil for structures that probe without scratch). A
	// dedicated buffer instead of the handle's pooled path keeps Next
	// deterministically allocation-free: sync.Pool may shed entries
	// (GC, and randomly under the race detector), a buffer owned by
	// this single-consumer cursor cannot. Consecutive Nexts through it
	// are successor steps (see access.LexBuf).
	buf *access.LexBuf

	// win is what Next serves a sharded handle from: the head tuples of
	// ranks winPos, winPos+1, … fetched by one AccessRange, so the
	// handle's rank search is paid once per cursorChunk rows, not per
	// row. It is looked up by position, so a Seek needs no reset.
	win    []values.Value
	winPos int64
}

// Cursor opens a cursor over the handle's immutable epoch, starting at
// position 0.
func (h *Handle) Cursor() *Cursor { return &Cursor{h: h} }

// Cursor opens a cursor over the registered query's current handle,
// starting at position 0. The cursor drains that handle's epoch: it
// keeps streaming the same consistent result set even if mutations
// publish newer epochs mid-scan. Open a fresh cursor to scan the new
// data.
func (pq *PreparedQuery) Cursor() (*Cursor, error) {
	h, err := pq.Acquire()
	if err != nil {
		return nil, err
	}
	return &Cursor{h: h}, nil
}

// Handle returns the handle the cursor scans.
func (c *Cursor) Handle() *Handle { return c.h }

// Total returns |Q(I)| of the scanned epoch.
func (c *Cursor) Total() int64 { return c.h.Total() }

// Width returns the number of head columns per emitted tuple.
func (c *Cursor) Width() int { return c.h.Width() }

// Pos returns the current position: the global rank the next Next
// emits.
func (c *Cursor) Pos() int64 { return c.pos }

// Seek moves the cursor position in answer ranks, with io.Seeker
// semantics: offset is relative to the start (io.SeekStart), the
// current position (io.SeekCurrent), or the end (io.SeekEnd) of the
// answer list, and the new absolute rank is returned. Seeking exactly
// to Total() parks the cursor at the end (Next then reports
// exhaustion); seeking outside [0, Total()] fails with
// access.ErrOutOfBound and leaves the position unchanged.
func (c *Cursor) Seek(offset int64, whence int) (int64, error) {
	k := offset
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		k += c.pos
	case io.SeekEnd:
		k += c.h.Total()
	default:
		return c.pos, fmt.Errorf("engine: seek whence %d", whence)
	}
	if k < 0 || k > c.h.Total() {
		return c.pos, fmt.Errorf("engine: seek to %d of %d answers: %w", k, c.h.Total(), access.ErrOutOfBound)
	}
	c.pos = k
	return k, nil
}

// Next appends the head tuple at the current position to dst, advances,
// and returns the extended slice and true. At the end of the answer
// list it returns (dst, false, nil). Steady-state calls with a reused
// dst perform zero allocations, on an unsharded structure (overlaid or
// not) and on a sharded handle.
func (c *Cursor) Next(dst []values.Value) ([]values.Value, bool, error) {
	total := c.h.Total()
	if c.pos >= total {
		return dst, false, nil
	}
	if st := c.h.st; st != nil {
		if c.buf == nil {
			c.buf = st.GetBuf()
		}
		a, err := st.AccessInto(c.buf, c.pos)
		if err != nil {
			return dst, false, err
		}
		dst = c.h.AppendHeadTuple(dst, a)
	} else {
		w := int64(c.h.Width())
		if off := c.pos - c.winPos; off < 0 || off*w >= int64(len(c.win)) {
			var err error
			c.win, err = c.h.AccessRange(c.win[:0], c.pos, min(c.pos+cursorChunk, total))
			if err != nil {
				c.win = c.win[:0]
				return dst, false, err
			}
			c.winPos = c.pos
		}
		off := (c.pos - c.winPos) * w
		dst = append(dst, c.win[off:off+w]...)
	}
	c.pos++
	return dst, true, nil
}

// NextN appends up to n head tuples (Width values each, concatenated)
// to dst through one batched AccessRange, advances past them, and
// returns the extended slice and the number of tuples emitted — fewer
// than n only at the end of the answer list.
func (c *Cursor) NextN(dst []values.Value, n int) ([]values.Value, int, error) {
	if n <= 0 {
		return dst, 0, nil
	}
	k1 := c.pos + int64(n)
	if t := c.h.Total(); k1 > t {
		k1 = t
	}
	if k1 <= c.pos {
		return dst, 0, nil
	}
	dst, err := c.h.AccessRange(dst, c.pos, k1)
	if err != nil {
		return dst, 0, err
	}
	emitted := int(k1 - c.pos)
	c.pos = k1
	return dst, emitted, nil
}

// All returns a range-over-func iterator over the head tuples of global
// ranks k0 ≤ k < k1 (k1 clamped to Total). The yielded slice aliases an
// internal buffer reused across iterations: copy it to retain it past
// the iteration step. All does not move the cursor's position; it is an
// independent window scan batching cursorChunk answers per underlying
// AccessRange. A non-nil error is yielded (with a nil tuple) at most
// once, terminating the sequence.
func (c *Cursor) All(k0, k1 int64) iter.Seq2[[]values.Value, error] {
	return func(yield func([]values.Value, error) bool) {
		if t := c.h.Total(); k1 > t {
			k1 = t
		}
		if k0 < 0 {
			yield(nil, fmt.Errorf("engine: range start %d: %w", k0, access.ErrOutOfBound))
			return
		}
		width := c.h.Width()
		var buf []values.Value
		for k := k0; k < k1; {
			end := k + cursorChunk
			if end > k1 {
				end = k1
			}
			var err error
			buf, err = c.h.AccessRange(buf[:0], k, end)
			if err != nil {
				yield(nil, err)
				return
			}
			for i := 0; i < int(end-k); i++ {
				if !yield(buf[i*width:(i+1)*width:(i+1)*width], nil) {
					return
				}
			}
			k = end
		}
	}
}
