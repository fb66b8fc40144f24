// body.go moves the three probe bodies across the wire without
// reflecting over their rows: a range window and a cursor page —
// kilobytes of rows behind a hundred bytes of header — and an access
// batch, whose answers carry one row each. On the way out the rows and
// the answers are appended straight from the engine's flat buffer, and
// every header is appended by hand. On the way in each body is walked
// member by member (walkObject), every byte checked, by the rules
// encoding/json decodes a struct by: any key order, names matched up to
// case folding and after unescaping, unknown members skipped once they
// are valid JSON, null leaving a field alone, the last duplicate
// winning. Only what no server writes — an escaped string, a repeated
// answers or tuple member, which encoding/json merges — is handed to
// encoding/json. The SDK's access request is appended by hand too.
// FuzzRows holds all of it to a reflective encode / decode.

package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"unicode/utf8"
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

// FlatAccess is an AccessResponse as the server holds it. Answer i is
// rank Ks[i] and either the error Errs[i], when Errs is not nil and
// that is not empty, or the next Width values of Flat.
type FlatAccess struct {
	AccessHeader
	Ks    []int64
	Errs  []string
	Flat  []Value
	Width int
}

// AppendJSON appends the body as json.Marshal would write it.
func (b FlatRange) AppendJSON(dst []byte) ([]byte, error) {
	return appendTuples(b.RangeHeader.appendJSON(dst), b.Tuples), nil
}

// AppendJSON appends the body as json.Marshal would write it.
func (b FlatPage) AppendJSON(dst []byte) ([]byte, error) {
	return appendTuples(b.PageHeader.appendJSON(dst), b.Tuples), nil
}

// AppendJSON appends the body as json.Marshal would write the
// AccessResponse it holds; an answer of width 0 has no tuple member.
func (b FlatAccess) AppendJSON(dst []byte) ([]byte, error) {
	dst = b.AccessHeader.appendJSON(dst)
	dst = append(dst, `,"answers":[`...)
	flat := b.Flat
	for i, k := range b.Ks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(append(dst, `{"k":`...), k)
		switch {
		case b.Errs != nil && b.Errs[i] != "":
			dst = appendString(append(dst, `,"error":`...), b.Errs[i])
		case b.Width > 0:
			dst = AppendRow(append(dst, `,"tuple":`...), flat[:b.Width])
			flat = flat[b.Width:]
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// MarshalJSON keeps a FlatAccess that reaches encoding/json on AppendJSON.
func (b FlatAccess) MarshalJSON() ([]byte, error) { return b.AppendJSON(nil) }

// appendJSON appends the header's object without its closing brace.
func (h AccessHeader) appendJSON(dst []byte) []byte {
	dst = appendInt(append(dst, `{"total":`...), h.Total)
	dst = appendString(append(dst, `,"mode":`...), h.Mode)
	dst = strconv.AppendBool(append(dst, `,"tractable":`...), h.Tractable)
	dst = appendString(append(dst, `,"verdict":`...), h.Verdict)
	return h.ShardEcho.appendJSON(dst)
}

// appendJSON appends the header's object without its closing brace.
func (h RangeHeader) appendJSON(dst []byte) []byte {
	dst = appendInt(append(dst, `{"total":`...), h.Total)
	dst = appendString(append(dst, `,"mode":`...), h.Mode)
	dst = strconv.AppendBool(append(dst, `,"tractable":`...), h.Tractable)
	dst = appendInt(append(dst, `,"k0":`...), h.K0)
	return h.ShardEcho.appendJSON(dst)
}

// appendJSON appends the header's object without its closing brace.
func (h PageHeader) appendJSON(dst []byte) []byte {
	dst = appendString(append(dst, `{"cursor":`...), h.Cursor)
	dst = appendString(append(dst, `,"query":`...), h.Query)
	dst = appendInt(append(dst, `,"pos":`...), h.Pos)
	return strconv.AppendBool(append(dst, `,"done":`...), h.Done)
}

// appendJSON appends the members encoding/json writes for the echo, each
// after a comma.
func (e ShardEcho) appendJSON(dst []byte) []byte {
	if e.Shards != 0 {
		dst = appendInt(append(dst, `,"shards":`...), int64(e.Shards))
	}
	if e.ShardBy != "" {
		dst = appendString(append(dst, `,"shard_by":`...), e.ShardBy)
	}
	if e.ShardNote != "" {
		dst = appendString(append(dst, `,"shard_note":`...), e.ShardNote)
	}
	return dst
}

// AppendAccessRequest appends AccessRequest{Ks: ks} as json.Marshal
// would write it. It is a function, not a method: InstanceAccessRequest
// embeds AccessRequest and would inherit a method that drops its spec.
func AppendAccessRequest(dst []byte, ks []int64) []byte {
	if ks == nil {
		return append(dst, `{"ks":null}`...)
	}
	return append(AppendRow(append(dst, `{"ks":`...), ks), '}')
}

// UnmarshalJSON decodes what json.Unmarshal would into a RangeResponse
// without these methods. It checks b itself, so the SDK calls it on the
// bytes off the socket, sparing encoding/json's scan of them.
func (r *RangeResponse) UnmarshalJSON(b []byte) error {
	return decodeObject(b, func(key []byte, i int) (int, error) {
		switch {
		case isMember(key, "total"):
			return parseInteger(b, i, &r.Total)
		case isMember(key, "mode"):
			return parseString(b, i, &r.Mode)
		case isMember(key, "tractable"):
			return parseBool(b, i, &r.Tractable)
		case isMember(key, "k0"):
			return parseInteger(b, i, &r.K0)
		case isMember(key, "tuples"):
			return parseRowsInto(b, i, &r.Tuples)
		}
		return r.ShardEcho.member(b, key, i)
	})
}

// UnmarshalJSON is RangeResponse's, for a cursor page.
func (p *CursorPage) UnmarshalJSON(b []byte) error {
	return decodeObject(b, func(key []byte, i int) (int, error) {
		switch {
		case isMember(key, "cursor"):
			return parseString(b, i, &p.Cursor)
		case isMember(key, "query"):
			return parseString(b, i, &p.Query)
		case isMember(key, "pos"):
			return parseInteger(b, i, &p.Pos)
		case isMember(key, "done"):
			return parseBool(b, i, &p.Done)
		case isMember(key, "tuples"):
			return parseRowsInto(b, i, &p.Tuples)
		}
		return i, errSkip
	})
}

// UnmarshalJSON is RangeResponse's, for an access batch: the answers
// share one Answer array and their tuples one value array.
func (r *AccessResponse) UnmarshalJSON(b []byte) error {
	return decodeObject(b, func(key []byte, i int) (int, error) {
		switch {
		case isMember(key, "total"):
			return parseInteger(b, i, &r.Total)
		case isMember(key, "mode"):
			return parseString(b, i, &r.Mode)
		case isMember(key, "tractable"):
			return parseBool(b, i, &r.Tractable)
		case isMember(key, "verdict"):
			return parseString(b, i, &r.Verdict)
		case isMember(key, "answers"):
			return parseAnswers(b, i, &r.Answers)
		}
		return r.ShardEcho.member(b, key, i)
	})
}

// member is the member function of the header fields ShardEcho adds.
func (e *ShardEcho) member(b, key []byte, i int) (int, error) {
	switch {
	case isMember(key, "shards"):
		return parseInteger(b, i, &e.Shards)
	case isMember(key, "shard_by"):
		return parseString(b, i, &e.ShardBy)
	case isMember(key, "shard_note"):
		return parseString(b, i, &e.ShardNote)
	}
	return i, errSkip
}

// appendTuples closes a header's object with rows as its last member,
// "tuples". No header is empty, so the comma is always due.
func appendTuples(dst []byte, rows FlatRows) []byte {
	return append(rows.AppendJSON(append(dst, `,"tuples":`...)), '}')
}

var (
	errBody = errors.New("api: body does not decode into its type")
	// errSkip is what a member function returns, with the index it was
	// given, for a key that names none of its fields.
	errSkip = errors.New("api: no such member")
)

// decodeObject decodes b, which must be one object (or null, which
// decodes nothing) and JSON whitespace, member by member; see
// walkObject.
func decodeObject(b []byte, member func(key []byte, i int) (int, error)) error {
	i, err := walkObject(b, skipSpace(b, 0), 0, member)
	if err == nil && skipSpace(b, i) != len(b) {
		err = errBody
	}
	return err
}

// walkObject decodes the object or null at b[i], depth containers deep,
// and returns the index just past it. It checks every byte; member gets
// each member's quoted name and the index of its value, decodes the
// value into the field the name is encoding/json's key for (the last
// duplicate wins, as there) and returns the index just past it — or
// errSkip for a name no field answers to, whose value is then only
// checked.
func walkObject(b []byte, i, depth int, member func(key []byte, i int) (int, error)) (int, error) {
	if hasNull(b, i) {
		return i + 4, nil
	}
	if i >= len(b) || b[i] != '{' {
		return i, errBody
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	for {
		end, ok := scanString(b, i)
		if !ok {
			return end, errBody
		}
		key := b[i:end]
		if i = skipSpace(b, end); i >= len(b) || b[i] != ':' {
			return i, errBody
		}
		i = skipSpace(b, i+1)
		next, err := member(key, i)
		if err == errSkip {
			next = skipValue(b, i)
			if err = nil; !valid(b[i:next], depth+1) {
				err = errBody
			}
		}
		if err != nil {
			return next, err
		}
		if i = skipSpace(b, next); i >= len(b) {
			return i, errBody
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return i + 1, nil
		default:
			return i, errBody
		}
	}
}

// valid reports whether v is one JSON value that encoding/json accepts
// depth containers deep, where its nesting limit counts them too.
func valid(v []byte, depth int) bool {
	if !json.Valid(v) {
		return false
	}
	w := make([]byte, 0, len(v)+2*depth)
	for range depth {
		w = append(w, '[')
	}
	w = append(w, v...)
	for range depth {
		w = append(w, ']')
	}
	return json.Valid(w)
}

// parseRowsInto replaces *dst with the block at b[i], as Rows'
// UnmarshalJSON does, and returns the index just past it.
func parseRowsInto(b []byte, i int, dst *Rows) (int, error) {
	rows, end, err := parseRows(b, i)
	if err == nil {
		*dst = rows
	}
	return end, err
}

// parseAnswers decodes the answers at b[i], a member of the top-level
// object, into *dst and returns the index just past them. Into a nil
// *dst — the one case in which encoding/json builds the answers afresh
// — they are built here: one Answer array, every tuple cut from one
// value array as parseRows cuts rows. Answers already there (the body
// repeats the member) are merged into by encoding/json itself, which
// alone decides what a merge keeps.
func parseAnswers(b []byte, i int, dst *[]Answer) (int, error) {
	if *dst != nil {
		return merge(b, i, 1, dst)
	}
	if hasNull(b, i) {
		return i + 4, nil
	}
	if i >= len(b) || b[i] != '[' {
		return i, errBody
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		*dst = []Answer{}
		return i + 1, nil
	}
	// A tuple's value is its row's first, after a '[', or follows a
	// comma: sized like this, flat has room for every value parseRow
	// stores. Every answer but null is an object.
	rest := b[i:]
	flat := make([]Value, bytes.Count(rest, []byte{','})+bytes.Count(rest, []byte{'['}))
	n := 0
	ans := make([]Answer, 0, bytes.Count(rest, []byte{'{'}))
	for {
		ans = append(ans, Answer{})
		a := &ans[len(ans)-1]
		var err error
		i, err = walkObject(b, i, 2, func(key []byte, i int) (end int, err error) {
			switch {
			case isMember(key, "k"):
				return parseInteger(b, i, &a.K)
			case isMember(key, "tuple"):
				if a.Tuple != nil {
					return merge(b, i, 3, &a.Tuple)
				}
				end, n, err = parseTuple(b, i, &a.Tuple, flat, n)
				return end, err
			case isMember(key, "error"):
				return parseString(b, i, &a.Err)
			}
			return i, errSkip
		})
		if err != nil {
			return i, err
		}
		if i = skipSpace(b, i); i >= len(b) {
			return i, errBody
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			*dst = ans
			return i + 1, nil
		default:
			return i, errBody
		}
	}
}

// parseTuple cuts the tuple at b[i] from flat, from index n on, into the
// nil *dst.
func parseTuple(b []byte, i int, dst *[]Value, flat []Value, n int) (end, next int, err error) {
	next, end, null, err := parseRow(flat, n, b, i)
	switch {
	case err != nil || null:
	case next == n:
		*dst = []Value{}
	default:
		*dst = flat[n:next:next]
	}
	return end, next, err
}

// merge has encoding/json decode the value at b[i], depth containers
// deep, into the *dst an earlier member of the same name filled.
func merge[T any](b []byte, i, depth int, dst *T) (int, error) {
	end := skipValue(b, i)
	if !valid(b[i:end], depth) {
		return end, errBody
	}
	return end, json.Unmarshal(b[i:end], dst)
}

// parseInteger decodes the integer at b[i] into *dst; null leaves *dst
// alone, as encoding/json does.
func parseInteger[T int | int64](b []byte, i int, dst *T) (int, error) {
	if hasNull(b, i) {
		return i + 4, nil
	}
	v, end, err := parseInt(b, i)
	if err == nil && int64(T(v)) != v {
		err = errBody
	}
	if err == nil {
		*dst = T(v)
	}
	return end, err
}

// parseBool decodes the boolean at b[i] into *dst; null leaves it alone.
func parseBool(b []byte, i int, dst *bool) (int, error) {
	switch {
	case hasNull(b, i):
		return i + 4, nil
	case bytes.HasPrefix(b[i:], []byte("true")):
		*dst = true
		return i + 4, nil
	case bytes.HasPrefix(b[i:], []byte("false")):
		*dst = false
		return i + 5, nil
	}
	return i, errBody
}

// parseString decodes the string at b[i] into *dst; null leaves it
// alone. A string with an escape or a byte that is not UTF-8 is
// encoding/json's to unquote.
func parseString(b []byte, i int, dst *string) (int, error) {
	if hasNull(b, i) {
		return i + 4, nil
	}
	end, ok := scanString(b, i)
	if !ok {
		return end, errBody
	}
	if raw := b[i+1 : end-1]; bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		*dst = string(raw)
		return end, nil
	}
	return end, json.Unmarshal(b[i:end], dst)
}

// isMember reports whether a quoted member name is encoding/json's key
// for the field tagged name: equal after unescaping, up to Unicode case
// folding.
func isMember(quoted []byte, name string) bool {
	if bytes.IndexByte(quoted, '\\') < 0 {
		return len(quoted) >= 2 && bytes.EqualFold(quoted[1:len(quoted)-1], []byte(name))
	}
	var s string
	return json.Unmarshal(quoted, &s) == nil && bytes.EqualFold([]byte(s), []byte(name))
}

// scanString returns the index just past the string that opens at b[i]
// and whether it is a JSON string: closed, no control byte, and — when
// it escapes anything — accepted by encoding/json.
func scanString(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return i, false
	}
	end := skipString(b, i)
	body := b[i+1 : end] // with the closing quote, if any
	if bytes.IndexByte(body, '\\') >= 0 {
		return end, json.Valid(b[i:end])
	}
	if len(body) == 0 || body[len(body)-1] != '"' {
		return end, false
	}
	for _, c := range body {
		if c < ' ' {
			return end, false
		}
	}
	return end, true
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
// comma, space or closing brace. It checks nothing; valid does.
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

// appendString appends s quoted as encoding/json quotes a string. The
// strings a server writes — modes, verdicts, per-answer errors — need
// no escape and are copied; any other is encoding/json's to quote.
func appendString(dst []byte, s string) []byte {
	if plain(s) {
		return append(append(append(dst, '"'), s...), '"')
	}
	q, _ := json.Marshal(s)
	return append(dst, q...)
}

// plain reports whether encoding/json quotes s as it is: valid UTF-8
// without a control character, a quote or a backslash, without <, > and
// & (escaped for HTML) and without U+2028 and U+2029 (for JavaScript).
func plain(s string) bool {
	ascii := true
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ', c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return ascii || utf8.ValidString(s) && !strings.ContainsRune(s, 0x2028) && !strings.ContainsRune(s, 0x2029)
}
