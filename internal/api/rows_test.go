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
	// plainRange, plainPage and plainAccess drop the bodies' own
	// UnmarshalJSON, so encoding/json walks their members itself.
	plainRange  RangeResponse
	plainPage   CursorPage
	plainAccess AccessResponse
)

// flattenAccess is an access response as the server would hold it, when
// it is one the server can write: answers an array, each with an error
// or a tuple of the one width, not both.
func flattenAccess(r AccessResponse) (FlatAccess, bool) {
	f := FlatAccess{AccessHeader: r.AccessHeader, Errs: make([]string, len(r.Answers))}
	if r.Answers == nil {
		return f, false
	}
	width := -1
	for i, a := range r.Answers {
		f.Ks = append(f.Ks, a.K)
		if f.Errs[i] = a.Err; a.Err != "" {
			if len(a.Tuple) > 0 {
				return f, false
			}
			continue
		}
		if width >= 0 && len(a.Tuple) != width {
			return f, false
		}
		width = len(a.Tuple)
		f.Flat = append(f.Flat, a.Tuple...)
	}
	f.Width = max(width, 0)
	return f, true
}

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

// checkBodies holds the three self-decoding bodies to a reflective
// decode of the same bytes, their flat forms to a reflective encode,
// and the hand-encoded access request to a reflective encode.
func checkBodies(t *testing.T, in []byte) {
	t.Helper()
	checkRangeAndPage(t, in)
	var ar AccessResponse
	var pa plainAccess
	err, wantErr := ar.UnmarshalJSON(in), json.Unmarshal(in, &pa)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("AccessResponse(%q) err = %v, reflection's = %v", in, err, wantErr)
	}
	if err == nil {
		if !reflect.DeepEqual(ar, AccessResponse(pa)) {
			t.Fatalf("AccessResponse(%q) = %#v, reflection reads %#v", in, ar, pa)
		}
		if flat, ok := flattenAccess(ar); ok {
			want, _ := json.Marshal(pa)
			if got, err := flat.AppendJSON([]byte("x")); err != nil || !bytes.Equal(got[1:], want) {
				t.Fatalf("FlatAccess appends %q (%v), reflection writes %q", got, err, want)
			}
			if got, err := json.Marshal(flat); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("FlatAccess marshals to %q (%v), reflection writes %q", got, err, want)
			}
		}
	}
	var req AccessRequest
	if json.Unmarshal(in, &req) == nil {
		want, _ := json.Marshal(req)
		if got := AppendAccessRequest([]byte("x"), req.Ks); !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendAccessRequest(%v) = %q, reflection writes %q", req.Ks, got, want)
		}
	}
}

// checkRangeAndPage is checkBodies for the two bodies made of rows.
func checkRangeAndPage(t *testing.T, in []byte) {
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

// bodySeeds is every row-bearing and access response of the wire
// transcript and its access requests, plus the shapes of an object
// reflection accepts and a naive splice gets wrong: members in another
// order, unknown and nested members, escaped and case-folded names,
// duplicates, null, space.
func bodySeeds(t testing.TB) [][]byte {
	golden, err := os.ReadFile("../serve/testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	var rows, access int
	for _, line := range strings.Split(string(golden), "\n") {
		switch {
		case strings.HasPrefix(line, "> POST ") && strings.Contains(line, "/access {"):
			access++
			seeds = append(seeds, []byte(line[strings.Index(line, " {")+1:]))
		case !strings.HasPrefix(line, "{"):
		case strings.Contains(line, `"tuples":[`):
			rows++
			seeds = append(seeds, []byte(line))
		case strings.Contains(line, `"answers":[`):
			access++
			seeds = append(seeds, []byte(line))
		}
	}
	if rows < 6 || access < 10 {
		t.Fatalf("only %d row-bearing and %d access bodies in wire.golden", rows, access)
	}
	for _, s := range []string{
		`{"answers":[{"k":1,"tuple":[1,2]},null,{"K":2,"TUPLE":[3,4],"Error":null,"k":null}],"total":3}`,
		`{"answers":[{"K":5,"ſ":1}],"mode":"x"}`,
		`{"answers":[{"K":5,"tuple":[7],"error":"e"}]}`,
		`{"answers":[{"k":1,"error":"x"},{"k":9,"tuple":[1,2,3]}],"answers":[{"k":2},null]}`,
		`{"answers":[{"tuple":[5,6],"tuple":[null]},{"tuple":[],"tuple":[null,1]}]}`,
		`{"answers":[{"error":"a","error":null,"k":3,"k":null}]}`,
		`{"answers":null,"answers":[{"k":1}]}`,
		`{"answers":[],"answers":[null]}`,
		`{"answers":[{"k":1,"x":{"y":[1,"]}",{"k":2}]},"z":null,"tuple":[1]}],"ANSWERS":[{"k":4,"tuple":[8]}]}`,
		`{"answers":[{"error":"aé\n\"b\\\/\ud800"},{"error":"√ ⟨n⟩"}]}`,
		"{\"answers\":[{\"error\":\"\xff\xfe\"}]}",
		"{\"answers\":[{\"error\":\"\x01\"}]}",
		`{"total":7,"mode":"m","tractable":true,"verdict":"<&>    \u0008\f\u001f","shards":2,"shard_by":"y\"","shard_note":"n","answers":[{"k":-1,"error":"out of bound"},{"k":0,"tuple":[1,-2]}]}`,
		` { "answers" : [ { "k" : 1 , "tuple" : [ 1 , 2 ] } , null ] , "total" : 2 } `,
		`{"answers":[{"k":1,}]}`,
		`{"answers":[{"k":1},]}`,
		`{"answers":[{"k":"1"}]}`,
		`{"answers":[{"k":1.5}]}`,
		`{"answers":[{"k":1e3}]}`,
		`{"answers":[{"k":01}]}`,
		`{"answers":[{"k":1 "tuple":[1]}]}`,
		`{"answers":[{"k":1,"x":tru}]}`,
		`{"answers":[{"k":1,"x":}]}`,
		`{"answers":[{"tuple":[1,2],"tuple":5}]}`,
		`{"answers":[{"error":"\x"}]}`,
		`{"answers":[{"error":"\u12"}]}`,
		`{"answers":[{"k":1}]`,
		`{"answers":[{"k":1}`,
		`{"answers":[5]}`,
		`{"answers":{}}`,
		`{"answers":[{"k":1}],"total":"x"}`,
		`{"ks":[1,2]}`,
		`{"ks":null}`,
		`{"ks":[]}`,
		`{"KS":[-0],"ks":[3]}`,
		// Names that fold to "k" and "answers" (Kelvin sign, long s),
		// raw and escaped.
		"{\"answers\":[{\"\xe2\x84\xaa\":5,\"tuple\":[1]}]}",
		`{"answers":[{"` + `\` + `u212a":6}]}`,
		"{\"an\xc5\xbfwers\":[{\"k\":1}]}",
	} {
		seeds = append(seeds, []byte(s))
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
	// The formatter's and the parser's edges: a window as the server
	// writes it, each digit count's first and last value, the int64
	// bounds and one past them, 19 and 20 digits, a leading zero, and
	// whitespace and null between the values of long rows.
	window, _ := rangeBody().AppendJSON(nil)
	f.Add(window)
	for _, s := range []string{
		"[[9,10,99,100,999999999999999999,1000000000000000000],[-9,-10,-99,-100,-999999999999999999,-1000000000000000000]]",
		"[[9223372036854775807,-9223372036854775808],[9223372036854775808],[-9223372036854775809]]",
		"[[1234567890123456789,9999999999999999999],[12345678901234567890],[-1234567890123456789,-9999999999999999999]]",
		"[[01],[0],[-01],[00]]",
		"[[1, 2 ,\t3\r\n,null , 5,null,7,8,9,10,11,12,13,14,15,16],[null,null,\n null ,1],[ 1 ,null]]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkRows(t, in)
		checkBodies(t, in)
	})
}

// oneAnswer is a point read's body as the server writes it.
const oneAnswer = `{"total":262144,"mode":"layered-lex","tractable":true,"verdict":"TRACTABLE ⟨n log n, log n⟩: free-connex, L-connex, and no disruptive trio w.r.t. L","answers":[{"k":123456,"tuple":[4711,815,42]}]}`

// BenchmarkAccessBody is a point read's body through the codec and
// through reflection, each way.
func BenchmarkAccessBody(b *testing.B) {
	in := []byte(oneAnswer)
	var ar AccessResponse
	if err := ar.UnmarshalJSON(in); err != nil {
		b.Fatal(err)
	}
	flat, _ := flattenAccess(ar)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r AccessResponse
			if err := r.UnmarshalJSON(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r plainAccess
			if err := json.Unmarshal(in, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]byte, 0, 512)
		for i := 0; i < b.N; i++ {
			dst, _ = flat.AppendJSON(dst[:0])
		}
	})
	b.Run("encode-reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(plainAccess(ar)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestNestingLimit: encoding/json's nesting limit counts the containers
// around an unknown member, so the codec does too: 10 000 deep is
// accepted, 10 001 is not. (Not fuzz seeds: inputs this long slow the
// fuzzer twenty-fold.)
func TestNestingLimit(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, in := range []string{
		`{"answers":[{"x":` + nest(9997) + `}]}`,
		`{"answers":[{"x":` + nest(9998) + `}]}`,
		`{"answers":[{"k":1}],"answers":[{"x":` + nest(9997) + `}]}`,
		`{"answers":[{"k":1}],"answers":[{"x":` + nest(9998) + `}]}`,
		`{"x":` + nest(9999) + `,"tuples":[]}`,
		`{"x":` + nest(10000) + `,"tuples":[]}`,
	} {
		checkBodies(t, []byte(in))
	}
}

// rangeBody is a 512-row window of three values as the server writes
// it: values of one to six digits, as on the benchmark instance.
func rangeBody() FlatRange {
	flat := make([]Value, 0, 512*3)
	for i := range int64(512) {
		flat = append(flat, i*i%262144, 100000+i*7919%900000, i*31%1000)
	}
	return FlatRange{
		RangeHeader: RangeHeader{Total: 262144, Mode: "layered-lex", Tractable: true, K0: 123456},
		Tuples:      FlatRows{Flat: flat, Width: 3, N: 512},
	}
}

// BenchmarkRangeBody is a 512-row range body through the codec and
// through reflection, each way.
func BenchmarkRangeBody(b *testing.B) {
	flat := rangeBody()
	in, err := flat.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	var rr RangeResponse
	if err := rr.UnmarshalJSON(in); err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(in)))
		for i := 0; i < b.N; i++ {
			var r RangeResponse
			if err := r.UnmarshalJSON(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-reflect", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(in)))
		for i := 0; i < b.N; i++ {
			var r mirrorRange
			if err := json.Unmarshal(in, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(in)))
		dst := make([]byte, 0, 2*len(in))
		for i := 0; i < b.N; i++ {
			dst, _ = flat.AppendJSON(dst[:0])
		}
	})
	b.Run("encode-reflect", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(in)))
		body := mirrorRange{rr.RangeHeader, rr.Tuples}
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
