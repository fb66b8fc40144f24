// rows.go is the one place that knows how a block of integer rows looks
// on the wire: a JSON array of arrays of integers, byte for byte what
// encoding/json writes for [][]int64 and exactly the language it reads
// back into one — JSON whitespace anywhere, null for a row (nil) or a
// value (0), no "+5", "01", "1.0", "1e3" and nothing past int64.
// The server encodes straight from the engine's flat answer buffer
// (FlatRows), each integer written in place two digits at a time
// (appendInt); the SDK decodes in one pass that checks every byte as it
// stores each value by index into one flat array, presized, that its
// rows are cut from (Rows); and an NDJSON line is one row of the same
// language (AppendRow, ParseRow) — none of it through reflection or
// strconv.

package api

import (
	"bytes"
	"errors"
	"math/bits"
	"slices"
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
		dst = appendInt(dst, v)
	}
	return append(dst, ']')
}

// pairs is every two-digit decimal, "00" to "99", back to back.
const pairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendInt appends v in decimal, byte for byte as strconv.AppendInt(dst,
// v, 10) does: it sizes the number first and writes it in place, last
// two digits first.
func appendInt(dst []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
	}
	// Every power of ten from 10 on is even, so u|1 has u's digits.
	n := bits.Len64(u|1) * 1233 >> 12 // ⌊log10 2^bits⌋
	if u|1 >= pow10[n] {
		n++
	}
	dst = slices.Grow(dst, n)
	end := len(dst) + n
	out := dst[len(dst):end]
	for ; u >= 100; u /= 100 {
		r := u % 100 * 2
		n -= 2
		out[n], out[n+1] = pairs[r], pairs[r+1]
	}
	if u >= 10 {
		out[0], out[1] = pairs[2*u], pairs[2*u+1]
	} else {
		out[0] = byte('0' + u)
	}
	return dst[:end]
}

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

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
	n := len(dst)
	dst = slices.Grow(dst, maxValues(b))
	n, i, _, err := parseRow(dst[:cap(dst)], n, b, skipSpace(b, 0))
	if err == nil && skipSpace(b, i) != len(b) {
		err = errRows
	}
	return dst[:n], err
}

// maxValues bounds the values of any accepted block or row in b: every
// value but a row's first follows a comma, and every row but the first
// follows one too.
func maxValues(b []byte) int { return bytes.Count(b, []byte{','}) + 1 }

// parseRows decodes the block that starts at b[i] and returns the index
// just past it. Its values go by index into one array sized by
// maxValues, which therefore never moves under the rows cut from it.
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
	rows := make(Rows, 0, bytes.Count(b[i:], []byte{'['}))
	flat := make([]Value, maxValues(b[i:]))
	for n := 0; ; {
		start := n
		var null bool
		var err error
		if n, i, null, err = parseRow(flat, n, b, i); err != nil {
			return nil, i, err
		}
		switch {
		case null:
			rows = append(rows, nil)
		case n == start:
			rows = append(rows, []Value{})
		default:
			rows = append(rows, flat[start:n:n])
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

// parseRow decodes the row that starts at b[i] into flat from index n
// on, which has room for it, and returns the index past its last value
// and the index just past the row; null is a row of no values.
func parseRow(flat []Value, n int, b []byte, i int) (next, end int, null bool, err error) {
	if hasNull(b, i) {
		return n, i + 4, true, nil
	}
	if i >= len(b) || b[i] != '[' {
		return n, i, false, errRows
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return n, i + 1, false, nil
	}
	for {
		if hasNull(b, i) {
			flat[n], i = 0, i+4
		} else if flat[n], i, err = parseInt(b, i); err != nil {
			return n, i, false, err
		}
		n++
		if i = skipSpace(b, i); i >= len(b) {
			return n, i, false, errRows
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return n, i + 1, false, nil
		default:
			return n, i, false, errRows
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
	v := Value(u)
	if neg {
		v = -v
	}
	// 19 digits cannot wrap a uint64; more cannot fit an int64, and 19
	// that do not fit it come out with the wrong sign.
	if n := i - start; n == 0 || n > 19 || n > 1 && b[start] == '0' || v != 0 && neg == (v > 0) {
		return 0, i, errRows
	}
	return v, i, nil
}

func hasNull(b []byte, i int) bool {
	return len(b)-i >= 4 && b[i] == 'n' && b[i+1] == 'u' && b[i+2] == 'l' && b[i+3] == 'l'
}

// skipSpace returns the index of the first byte at or after b[i] that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}
