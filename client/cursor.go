package client

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"

	"rankedaccess/internal/api"
)

// Cursor is a server-side scan position: created once, advanced by
// Next (JSON batches) or Stream (NDJSON row streaming). It is not safe
// for concurrent use — open one cursor per consumer; the server keeps
// the underlying prepared structure shared.
type Cursor struct {
	p *Prepared
	// ID is the opaque server token.
	ID string

	total int64
	pos   int64
	width int
	done  bool
}

// Cursor opens a server-side cursor at global rank start.
func (p *Prepared) Cursor(ctx context.Context, start int64) (*Cursor, error) {
	var out api.CursorResponse
	if _, err := p.c.do(ctx, http.MethodPost, p.path("/cursor"), api.CursorRequest{Start: start}, &out, ""); err != nil {
		return nil, err
	}
	return &Cursor{
		p: p, ID: out.Cursor, total: out.Total, pos: out.Pos, width: out.Width,
		done: out.Pos >= out.Total,
	}, nil
}

// Total returns |Q(I)| of the snapshot the cursor scans.
func (c *Cursor) Total() int64 { return c.total }

// Pos returns the global rank the next batch starts at.
func (c *Cursor) Pos() int64 { return c.pos }

// Width returns the number of head columns per row.
func (c *Cursor) Width() int { return c.width }

// Done reports whether the scan is exhausted.
func (c *Cursor) Done() bool { return c.done }

func (c *Cursor) nextPath(n int) string {
	return "/v1/cursors/" + c.ID + "/next?n=" + strconv.Itoa(n)
}

// Next fetches up to n rows as one JSON batch and advances the cursor.
// It returns an empty slice when the scan is exhausted. The rows share
// one backing array, each clipped to its own capacity.
//
// The request moves the server's position, so it is not replayed after
// a transport error (see Client.send): the error comes back, and if the
// server did handle the lost request, every later call fails with
// ErrCursorGap rather than skip the lost page silently.
func (c *Cursor) Next(ctx context.Context, n int) ([][]Value, error) {
	var out api.CursorPage
	if _, err := c.p.c.send(ctx, http.MethodGet, c.nextPath(n), nil, &out, "", false); err != nil {
		return nil, err
	}
	if from := out.Pos - int64(len(out.Tuples)); from != c.pos {
		return nil, fmt.Errorf("%w: page starts at rank %d, cursor %s stands at %d", ErrCursorGap, from, c.ID, c.pos)
	}
	c.pos, c.done = out.Pos, out.Done
	return out.Tuples, nil
}

// Stream fetches up to n rows as an NDJSON stream (Accept:
// application/x-ndjson), invoking fn once per row as it arrives and
// returning the number of rows consumed. The row slice is reused
// between invocations — copy it to retain it. A non-nil error from fn
// aborts the consumption and is returned verbatim.
//
// The server commits the cursor position to the window end before the
// first byte (X-Cursor-Pos); Stream mirrors that position as soon as
// the headers arrive, so Pos/Done stay in sync with the server even
// when fn aborts or the connection drops mid-stream — a retry simply
// streams the next window. Like Next, the request is never replayed,
// and a response lost before its headers arrived turns every later call
// into ErrCursorGap.
func (c *Cursor) Stream(ctx context.Context, n int, fn func(row []Value) error) (int, error) {
	resp, err := c.p.c.send(ctx, http.MethodGet, c.nextPath(n), nil, nil, "application/x-ndjson", false)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	endPos, err := strconv.ParseInt(resp.Header.Get("X-Cursor-Pos"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("client: stream response missing X-Cursor-Pos: %w", err)
	}
	want := int(endPos - c.pos)
	if want < 0 || want > n {
		return 0, fmt.Errorf("%w: window of %d rows ends at rank %d, cursor %s stands at %d", ErrCursorGap, n, endPos, c.ID, c.pos)
	}
	c.pos = endPos
	c.done = resp.Header.Get("X-Cursor-Done") == "true"
	row := make([]Value, 0, c.width)
	rows := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		row, err = api.ParseRow(row[:0], line)
		if err != nil {
			return rows, fmt.Errorf("client: bad stream row %q: %w", line, err)
		}
		if err := fn(row); err != nil {
			return rows, err
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return rows, fmt.Errorf("client: stream read: %w", err)
	}
	if rows != want {
		// The connection dropped or the server hit an internal error
		// mid-stream; surface the short read rather than silently
		// under-delivering (the cursor position is still consistent).
		return rows, fmt.Errorf("client: stream truncated: got %d of %d rows", rows, want)
	}
	return rows, nil
}

// Close releases the server-side cursor.
func (c *Cursor) Close(ctx context.Context) error {
	_, err := c.p.c.do(ctx, http.MethodDelete, "/v1/cursors/"+c.ID, nil, nil, "")
	return err
}
