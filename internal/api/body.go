// body.go moves the two hot response bodies — a range window and a
// cursor page, kilobytes of rows behind a hundred bytes of header —
// across the wire without reflecting over the rows. The header still
// goes through encoding/json, so every rule it has about keys (any
// order, unknown ones skipped, case folded, escapes, the last duplicate
// wins) is its own; the rows are spliced in and cut out by rows.go.
// FuzzRows holds both directions to a reflective encode / decode.

package api

import (
	"bytes"
	"encoding/json"
)

// FlatRange is a RangeResponse as the server holds it.
type FlatRange struct {
	RangeHeader
	Tuples FlatRows `json:"tuples"`
}

// FlatPage is a CursorPage as the server holds it.
type FlatPage struct {
	PageHeader
	Tuples FlatRows `json:"tuples"`
}

// AppendJSON appends the body as json.Marshal would write it.
func (b FlatRange) AppendJSON(dst []byte) ([]byte, error) {
	return appendBody(dst, b.RangeHeader, b.Tuples)
}

// AppendJSON appends the body as json.Marshal would write it.
func (b FlatPage) AppendJSON(dst []byte) ([]byte, error) {
	return appendBody(dst, b.PageHeader, b.Tuples)
}

// UnmarshalJSON decodes what json.Unmarshal would into a RangeResponse
// without these methods. It checks b itself, so the SDK calls it on the
// bytes off the socket, sparing encoding/json's scan of them.
func (r *RangeResponse) UnmarshalJSON(b []byte) error {
	return decodeBody(b, &r.RangeHeader, &r.Tuples)
}

// UnmarshalJSON is RangeResponse's, for a cursor page.
func (p *CursorPage) UnmarshalJSON(b []byte) error {
	return decodeBody(b, &p.PageHeader, &p.Tuples)
}

// appendBody appends header's object with rows as its last member,
// "tuples". No header is empty, so the comma is always due.
func appendBody(dst []byte, header any, rows FlatRows) ([]byte, error) {
	h, err := json.Marshal(header)
	if err != nil {
		return dst, err
	}
	dst = append(dst, h[:len(h)-1]...)
	dst = append(dst, `,"tuples":`...)
	return append(rows.AppendJSON(dst), '}'), nil
}

// decodeBody walks the members of b's top-level object. The value of
// each member named tuples goes to the rows codec (the last one wins);
// encoding/json decodes what is left, with null in those values' place,
// into header. The walk itself checks nothing: where b is not JSON, it
// agrees with encoding/json up to the first bad byte, which is still
// there for encoding/json to refuse.
func decodeBody(b []byte, header any, rows *Rows) error {
	var (
		hdr  []byte // b[:last], each tuples value replaced by null
		last int
		got  Rows
		seen bool
	)
	if i := skipSpace(b, 0); i < len(b) && b[i] == '{' {
		for i++; ; i++ {
			if i = skipSpace(b, i); i >= len(b) || b[i] != '"' {
				break
			}
			end := skipString(b, i)
			key := b[i:end]
			if i = skipSpace(b, end); i >= len(b) || b[i] != ':' {
				break
			}
			if i = skipSpace(b, i+1); isTuples(key) {
				r, end, err := parseRows(b, i)
				if err != nil {
					return err
				}
				hdr = append(append(hdr, b[last:i]...), "null"...)
				got, seen, last, i = r, true, end, end
			} else {
				i = skipValue(b, i)
			}
			if i = skipSpace(b, i); i >= len(b) || b[i] != ',' {
				break
			}
		}
	}
	if !seen {
		return json.Unmarshal(b, header)
	}
	if err := json.Unmarshal(append(hdr, b[last:]...), header); err != nil {
		return err
	}
	*rows = got
	return nil
}

var tuplesKey = []byte("tuples")

// isTuples reports whether a quoted member name is one encoding/json
// would store into a field tagged "tuples": equal under Unicode case
// folding, after unescaping.
func isTuples(quoted []byte) bool {
	if bytes.IndexByte(quoted, '\\') < 0 {
		return len(quoted) >= 2 && bytes.EqualFold(quoted[1:len(quoted)-1], tuplesKey)
	}
	var name string
	return json.Unmarshal(quoted, &name) == nil && bytes.EqualFold([]byte(name), tuplesKey)
}

// skipString returns the index just past the string that opens at b[i].
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(b)
}

// skipValue returns the index just past the value that starts at b[i]:
// a string, a balanced object or array, or a scalar up to the next
// comma, space or closing brace.
func skipValue(b []byte, i int) int {
	for depth := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			if i = skipString(b, i) - 1; depth == 0 {
				return i + 1
			}
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case depth == 0 && (c == ',' || skipSpace(b, i) != i):
			return i
		}
	}
	return len(b)
}
