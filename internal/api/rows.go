// rows.go is the one place that knows how a block of integer rows looks
// on the wire: a JSON array of arrays of integers, byte for byte what
// encoding/json writes for [][]int64 and exactly the language it reads
// back into one — JSON whitespace anywhere, null for a row (nil) or a
// value (0), no "+5", "01", "1.0", "1e3" and nothing past int64.
// The server encodes straight from the engine's flat answer buffer
// (FlatRows), the SDK decodes into rows cut from one flat array (Rows),
// and an NDJSON line is one row of the same language (AppendRow,
// ParseRow) — none of it through reflection.

package api

import (
	"bytes"
	"errors"
	"strconv"
)

// Rows is a block of rows as a request or a decoded response holds it.
type Rows [][]Value

// FlatRows is a block of rows as the engine hands it over: N rows of
// Width values back to back in Flat. Width 0 is N empty rows.
type FlatRows struct {
	Flat  []Value
	Width int
	N     int
}

var errRows = errors.New("api: not a JSON array of integer arrays")

// AppendRow appends one row as a JSON array of integers.
func AppendRow(dst []byte, row []Value) []byte {
	dst = append(dst, '[')
	for j, v := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

// AppendJSON appends the block as a JSON array of rows; no rows is [].
func (f FlatRows) AppendJSON(dst []byte) []byte {
	dst = append(dst, '[')
	for i := 0; i < f.N; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendRow(dst, f.Flat[i*f.Width:(i+1)*f.Width])
	}
	return append(dst, ']')
}

// MarshalJSON keeps a FlatRows that reaches encoding/json on the codec.
func (f FlatRows) MarshalJSON() ([]byte, error) { return f.AppendJSON(nil), nil }

// MarshalJSON writes nil rows, and a nil row, as null.
func (r Rows) MarshalJSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	b := append(make([]byte, 0, 2+len(r)*8), '[')
	for i, row := range r {
		if i > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "null"...)
		} else {
			b = AppendRow(b, row)
		}
	}
	return append(b, ']'), nil
}

// UnmarshalJSON replaces r with the decoded block; null is nil rows.
func (r *Rows) UnmarshalJSON(b []byte) error {
	rows, err := ParseRows(b)
	if err == nil {
		*r = rows
	}
	return err
}

// ParseRows decodes a whole block. Its rows share one backing array,
// each clipped to its own capacity, so appending to one row never
// writes into the next.
func ParseRows(b []byte) (Rows, error) {
	rows, i, err := parseRows(b, skipSpace(b, 0))
	if err == nil && skipSpace(b, i) != len(b) {
		err = errRows
	}
	return rows, err
}

// ParseRow decodes one row — an NDJSON line — appending its values to dst.
func ParseRow(dst []Value, b []byte) ([]Value, error) {
	dst, i, _, err := parseRow(dst, b, skipSpace(b, 0))
	if err == nil && skipSpace(b, i) != len(b) {
		err = errRows
	}
	return dst, err
}

// parseRows decodes the block that starts at b[i] and returns the index
// just past it.
func parseRows(b []byte, i int) (Rows, int, error) {
	if hasNull(b, i) {
		return nil, i + 4, nil
	}
	if i >= len(b) || b[i] != '[' {
		return nil, i, errRows
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return Rows{}, i + 1, nil
	}
	// Every value but a row's first follows a comma, and no accepted
	// block has more rows than it has values and commas: sized like
	// this, flat never moves under the rows already cut from it.
	commas := bytes.Count(b[i:], []byte{','})
	rows := make(Rows, 0, bytes.Count(b[i:], []byte{'['}))
	flat := make([]Value, 0, commas+1)
	for {
		start := len(flat)
		var null bool
		var err error
		if flat, i, null, err = parseRow(flat, b, i); err != nil {
			return nil, i, err
		}
		switch {
		case null:
			rows = append(rows, nil)
		case len(flat) == start:
			rows = append(rows, []Value{})
		default:
			rows = append(rows, flat[start:len(flat):len(flat)])
		}
		if i = skipSpace(b, i); i >= len(b) {
			return nil, i, errRows
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return rows, i + 1, nil
		default:
			return nil, i, errRows
		}
	}
}

// parseRow decodes the row that starts at b[i], appending its values to
// dst, and returns the index just past it; null is a row of no values.
func parseRow(dst []Value, b []byte, i int) (_ []Value, next int, null bool, err error) {
	if hasNull(b, i) {
		return dst, i + 4, true, nil
	}
	if i >= len(b) || b[i] != '[' {
		return dst, i, false, errRows
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return dst, i + 1, false, nil
	}
	for {
		var v Value
		if hasNull(b, i) {
			i += 4
		} else if v, i, err = parseInt(b, i); err != nil {
			return dst, i, false, err
		}
		dst = append(dst, v)
		if i = skipSpace(b, i); i >= len(b) {
			return dst, i, false, errRows
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return dst, i + 1, false, nil
		default:
			return dst, i, false, errRows
		}
	}
}

// parseInt decodes a JSON integer that fits int64: an optional minus,
// then 0 or digits with no leading zero. A fraction or an exponent is
// left for the caller to trip over.
func parseInt(b []byte, i int) (Value, int, error) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	// 19 digits cannot wrap a uint64; more cannot fit an int64.
	if n := i - start; n == 0 || n > 19 || (n > 1 && b[start] == '0') {
		return 0, i, errRows
	}
	if neg {
		if u > 1<<63 {
			return 0, i, errRows
		}
		return -Value(u), i, nil
	}
	if u > 1<<63-1 {
		return 0, i, errRows
	}
	return Value(u), i, nil
}

func hasNull(b []byte, i int) bool {
	return len(b)-i >= 4 && b[i] == 'n' && b[i+1] == 'u' && b[i+2] == 'l' && b[i+3] == 'l'
}

// skipSpace returns the index of the first byte at or after b[i] that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}
