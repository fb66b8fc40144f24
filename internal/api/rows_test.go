package api

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// checkRows holds the codec to encoding/json on one input, as a block
// and as a single row: accepted by one if and only if by the other, to
// equal values, which encode to equal bytes.
func checkRows(t *testing.T, in []byte) (accepted bool) {
	t.Helper()
	var want [][]int64
	wantErr := json.Unmarshal(in, &want)
	got, err := ParseRows(in)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseRows(%q) err = %v, encoding/json's = %v", in, err, wantErr)
	}
	if err == nil {
		if !reflect.DeepEqual([][]int64(got), want) {
			t.Fatalf("ParseRows(%q) = %#v, encoding/json reads %#v", in, got, want)
		}
		enc, _ := got.MarshalJSON()
		if ref, _ := json.Marshal(want); !bytes.Equal(enc, ref) {
			t.Fatalf("Rows(%q) encodes to %q, encoding/json to %q", in, enc, ref)
		}
	}
	var wantRow []int64
	wantErr = json.Unmarshal(in, &wantRow)
	row, rowErr := ParseRow(nil, in)
	if (rowErr == nil) != (wantErr == nil) {
		t.Fatalf("ParseRow(%q) err = %v, encoding/json's = %v", in, rowErr, wantErr)
	}
	if rowErr == nil && (len(row) != len(wantRow) || len(row) > 0 && !reflect.DeepEqual(row, wantRow)) {
		t.Fatalf("ParseRow(%q) = %v, encoding/json reads %v", in, row, wantRow)
	}
	return err == nil
}

// TestRowsBoundary is the one strictness of every row on the wire, JSON
// body or NDJSON line: encoding/json's for [][]int64.
func TestRowsBoundary(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"[[1,2,3]]", true},
		{"[[-0]]", true},
		{"[[9223372036854775807,-9223372036854775808]]", true},
		{"[[9223372036854775808]]", false},
		{"[[-9223372036854775809]]", false},
		{"[[18446744073709551617]]", false}, // wraps a uint64 to 1
		{"[[01]]", false},
		{"[[1.0]]", false},
		{"[[1e3]]", false},
		{"[[+5]]", false},
		{"[[-]]", false},
		{"[[null]]", true}, // a null value is 0
		{"[null]", true},   // a null row is nil
		{"null", true},     // null rows are nil
		{"[[]]", true},
		{"[[],[],[]]", true}, // a width-0 window
		{"[]", true},         // an empty window
		{" [ [ 1 , 2 ] ,\t[ ]\r\n] ", true},
		{"[[1,2],[3]]", true}, // ragged is the engine's to refuse
		{"", false},
		{"[", false},
		{"[[1,2]", false},
		{"[[1,,2]]", false},
		{"[[1,]]", false},
		{"[[1],]", false},
		{"[[1]] x", false},
		{"[[1]nullx]", false},
		{`[["x"]]`, false},
		{"[1]", false},
		{"[[[1]]]", false},
		{"{}", false},
		{"nul", false},
	} {
		if got := checkRows(t, []byte(tc.in)); got != tc.ok {
			t.Errorf("%q accepted = %v, want %v", tc.in, got, tc.ok)
		}
	}
	// The NDJSON forms the stream decoder used to take or refuse on its own.
	for in, ok := range map[string]bool{"[1,2,3]": true, "[ ]": true, "[+5]": false, "1,2": false, "[1,2": false} {
		if _, err := ParseRow(nil, []byte(in)); (err == nil) != ok {
			t.Errorf("ParseRow(%q) err = %v, want ok = %v", in, err, ok)
		}
	}
}

// mirrorRange and mirrorPage are the two bodies as they were declared
// before the codec, plain slices and no methods: what reflection alone
// writes for them is the wire format.
type (
	mirrorRange struct {
		RangeHeader
		Tuples [][]int64 `json:"tuples"`
	}
	mirrorPage struct {
		PageHeader
		Tuples [][]int64 `json:"tuples"`
	}
	// plainRange and plainPage drop the bodies' own UnmarshalJSON, so
	// encoding/json walks their members itself.
	plainRange RangeResponse
	plainPage  CursorPage
)

// flatten is rows as the engine would hand them over, when they are a
// rectangle.
func flatten(rows Rows) (FlatRows, bool) {
	f := FlatRows{N: len(rows)}
	if rows == nil {
		return f, false
	}
	for i, r := range rows {
		if r == nil || (i > 0 && len(r) != f.Width) {
			return f, false
		}
		f.Width = len(r)
		f.Flat = append(f.Flat, r...)
	}
	return f, true
}

// checkBodies holds the two self-decoding bodies to a reflective decode
// of the same bytes, and their flat forms to a reflective encode.
func checkBodies(t *testing.T, in []byte) {
	t.Helper()
	var rr RangeResponse
	var pr plainRange
	err, wantErr := rr.UnmarshalJSON(in), json.Unmarshal(in, &pr)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("RangeResponse(%q) err = %v, reflection's = %v", in, err, wantErr)
	}
	if err == nil {
		if !reflect.DeepEqual(rr, RangeResponse(pr)) {
			t.Fatalf("RangeResponse(%q) = %#v, reflection reads %#v", in, rr, pr)
		}
		if flat, ok := flatten(rr.Tuples); ok {
			want, _ := json.Marshal(mirrorRange{rr.RangeHeader, rr.Tuples})
			body := FlatRange{rr.RangeHeader, flat}
			if got, err := body.AppendJSON([]byte("x")); err != nil || !bytes.Equal(got[1:], want) {
				t.Fatalf("FlatRange appends %q (%v), reflection writes %q", got, err, want)
			}
			if got, err := json.Marshal(body); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("FlatRange marshals to %q (%v), reflection writes %q", got, err, want)
			}
		}
	}
	var cp CursorPage
	var pp plainPage
	err, wantErr = cp.UnmarshalJSON(in), json.Unmarshal(in, &pp)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("CursorPage(%q) err = %v, reflection's = %v", in, err, wantErr)
	}
	if err == nil {
		if !reflect.DeepEqual(cp, CursorPage(pp)) {
			t.Fatalf("CursorPage(%q) = %#v, reflection reads %#v", in, cp, pp)
		}
		if flat, ok := flatten(cp.Tuples); ok {
			want, _ := json.Marshal(mirrorPage{cp.PageHeader, cp.Tuples})
			if got, err := (FlatPage{cp.PageHeader, flat}).AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("FlatPage appends %q (%v), reflection writes %q", got, err, want)
			}
		}
	}
}

// bodySeeds is every row-bearing response of the wire transcript, plus
// the shapes of an object reflection accepts and a naive splice gets
// wrong: members in another order, unknown and nested members, escaped
// and case-folded names, duplicates, null, space.
func bodySeeds(t testing.TB) [][]byte {
	golden, err := os.ReadFile("../serve/testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for _, line := range strings.Split(string(golden), "\n") {
		if strings.HasPrefix(line, "{") && strings.Contains(line, `"tuples":[`) {
			seeds = append(seeds, []byte(line))
		}
	}
	if len(seeds) < 6 {
		t.Fatalf("only %d row-bearing responses in wire.golden", len(seeds))
	}
	for _, s := range []string{
		`{"tuples":[[1,5,3],[1,5,4]],"k0":1,"tractable":true,"mode":"layered-lex","total":5}`,
		`{"total":5,"bogus":{"tuples":[[9]],"x":["}",{"y":"\"]"}]},"tuples":[[1]],"more":[1,"]"]}`,
		`{"total":5,"tuples":[[1,2]],"k0":7}`,
		`{"TOTAL":5,"Tuples":[[1,2]],"tupleſ":[[3]]}`,
		`{"tup\u006ces":[[4,5]],"\u0074otal":9,"tuples\u0000":[[6]]}`,
		`{"tup\u006Ces":[[4,5]],"tuple\x73":[[6]]}`,
		`{"tuples":[[1]],"total":1,"tuples":[[2],[3]],"total":2}`,
		`{"tuples":[[7]],"tuples":[[null]]}`,
		`{"tuples":[[1]],"tuples":null}`,
		`{"tuples":[[1.5]],"tuples":[[1]]}`,
		`{"tuples":null,"pos":3,"cursor":"c"}`,
		` { "total" : 5 , "tuples" : [ [ 1 , 2 ] , [ 3 , 4 ] ] , "k0" : 0 } `,
		`{"cursor":"a\"b\\","query":"q","pos":2,"done":true,"tuples":[[],[]]}`,
		`{"total":"five","tuples":[[1]]}`,
		`{"tuples":[[1]]} x`,
		`{"tuples":[[1]],}`,
		`{"tuples":5}`,
		`{"tuples" [[1]]}`,
		`{"total":5`,
		`{"tuples":[[1]]`,
		`{"tuples`,
		`{"\`,
		`{}`,
		`null`,
		`[[1,2]]`,
		`7`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzRows is the differential oracle of the codec, which faces a
// socket on both ends: whatever the bytes, rows.go and body.go accept
// them exactly when encoding/json does, read the same values, and write
// the same bytes back.
func FuzzRows(f *testing.F) {
	for _, s := range bodySeeds(f) {
		f.Add(s)
		if i := bytes.Index(s, []byte(`"tuples":`)); i >= 0 {
			f.Add(bytes.TrimSuffix(s[i+len(`"tuples":`):], []byte("}")))
		}
	}
	for _, s := range []string{"[[-0,9223372036854775807],[-9223372036854775808,01]]", "[[1.0],[1e3],[+5]]", "[null,[null],[]]", "[ ]"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkRows(t, in)
		checkBodies(t, in)
	})
}
