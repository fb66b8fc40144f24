package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/faultfs"
	"rankedaccess/internal/values"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden from the live handlers")

// wireStep is one request of the wire script: a method, a path and the
// literal body bytes a client would send ("" for none).
type wireStep struct {
	method, path, body string
	ndjson             bool
}

func wPost(path, body string) wireStep { return wireStep{method: "POST", path: path, body: body} }
func wGet(path string) wireStep        { return wireStep{method: "GET", path: path} }
func wDel(path string) wireStep        { return wireStep{method: "DELETE", path: path} }

// wireRecorder drives scripts against handlers and renders each
// exchange in the golden file's shape:
//
//	> METHOD path body
//	< status [Header: value]...
//	body bytes, verbatim
//
// Values that differ run to run (cursor tokens, snapshot names and wall
// times) are learned from the responses that mint them and replaced by
// placeholders, in requests and responses alike.
type wireRecorder struct {
	t   *testing.T
	out strings.Builder
	sub map[string]string // live value → placeholder
	cur map[string]string // placeholder → the latest live value
}

func (wr *wireRecorder) learn(live, placeholder string) {
	wr.sub[live], wr.cur[placeholder] = placeholder, live
}

func (wr *wireRecorder) section(name string) { fmt.Fprintf(&wr.out, "== %s ==\n", name) }

// scrub replaces longer live values first: a snapshot's name contains
// its wall time.
func (wr *wireRecorder) scrub(s string) string {
	lives := make([]string, 0, len(wr.sub))
	for live := range wr.sub {
		lives = append(lives, live)
	}
	sort.Slice(lives, func(i, j int) bool {
		if len(lives[i]) != len(lives[j]) {
			return len(lives[i]) > len(lives[j])
		}
		return lives[i] < lives[j]
	})
	for _, live := range lives {
		s = strings.ReplaceAll(s, live, wr.sub[live])
	}
	return s
}

// expand is scrub's inverse, for script paths that name a minted value.
func (wr *wireRecorder) expand(s string) string {
	for ph, live := range wr.cur {
		s = strings.ReplaceAll(s, ph, live)
	}
	return s
}

func (wr *wireRecorder) run(h http.Handler, steps ...wireStep) {
	wr.t.Helper()
	for _, st := range steps {
		req := httptest.NewRequest(st.method, wr.expand(st.path), strings.NewReader(st.body))
		if st.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		if st.ndjson {
			req.Header.Set("Accept", "application/x-ndjson")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		raw := rec.Body.String()

		// Learn the values this response minted.
		var minted struct {
			Cursor    string `json:"cursor"`
			Name      string `json:"name"`
			Snapshots []struct {
				CreatedUnixNano int64 `json:"created_unix_nano"`
			} `json:"snapshots"`
		}
		if json.Unmarshal([]byte(raw), &minted) == nil {
			if minted.Cursor != "" {
				wr.learn(minted.Cursor, "<cursor>")
			}
			if strings.HasPrefix(minted.Name, "snapshot-") {
				wr.learn(minted.Name, "<snapshot>")
			}
			for _, s := range minted.Snapshots {
				wr.learn(fmt.Sprint(s.CreatedUnixNano), "<nano>")
			}
		}

		fmt.Fprintf(&wr.out, "> %s %s", st.method, st.path)
		if st.ndjson {
			wr.out.WriteString(" (Accept: application/x-ndjson)")
		}
		if st.body != "" {
			wr.out.WriteString(" " + st.body)
		}
		fmt.Fprintf(&wr.out, "\n< %d", rec.Code)
		for _, hdr := range []string{"Content-Type", "Retry-After", "X-Cursor", "X-Cursor-Pos", "X-Cursor-Done"} {
			if v := rec.Header().Get(hdr); v != "" {
				fmt.Fprintf(&wr.out, " [%s: %s]", hdr, wr.scrub(v))
			}
		}
		wr.out.WriteString("\n" + wr.scrub(raw))
		if !strings.HasSuffix(raw, "\n") {
			wr.out.WriteString("\n")
		}
	}
}

// noCluster is a coordinator's RemoteBuilder with no cluster behind it:
// all the wire script needs of a coordinator is that it refuses writes.
type noCluster struct{}

func (noCluster) BuildRemote(context.Context, engine.Spec) (*engine.RemoteHandle, error) {
	return nil, errors.New("no cluster")
}

func (noCluster) CountRemote(context.Context, string, string) (int64, engine.CountInfo, error) {
	return 0, engine.CountInfo{}, errors.New("no cluster")
}

// pinHealth freezes the handler's request-path health sample at what it
// is now, so a script can break the engine and still reach the code
// behind the shed-while-degraded gate (in production that window is
// the ≤ healthTTL between two samples).
func pinHealth(h http.Handler) {
	s := h.(apiHandler).s
	s.health()
	s.healthMu.Lock()
	s.healthAt = time.Now().Add(time.Hour)
	s.healthMu.Unlock()
}

const (
	wireSpec     = `"query":"Q(x, y, z) :- R(x, y), S(y, z)","order":"x, y, z"`
	wireSharded  = `"query":"Q(x, y, z) :- R(x, y), S(y, z)","order":"x, y, z","shards":2`
	wireSelfJoin = `"query":"Q(x, y, z) :- R(x, y), R(y, z)","shards":2`
	wireSum      = `"query":"Q(x, y, z) :- R(x, y), S(y, z)","sum_by":["x","y","z"]`
	wireHard     = `"query":"Q(x, y, z) :- R(x, y), S(y, z)","order":"x, z, y"`
	wireFD       = `"query":"Q(a, b, c) :- T(a, b), U(b, c)","order":"a, c, b","fds":["T: a -> b"]`
)

// wireTranscript drives every route of the API — both handler
// generations, success and a representative failure each — over a fixed
// five-answer instance and returns the transcript.
func wireTranscript(t *testing.T) string {
	t.Helper()
	wr := &wireRecorder{t: t, sub: map[string]string{}, cur: map[string]string{}}

	e := engine.New(nil, engine.Options{})
	t.Cleanup(func() { e.Close() })
	h := NewHandler(e)
	wr.section("single node: one-shot endpoints")
	wr.run(h,
		wPost("/v1/instance/load", `{"relation":"R","rows":[[1,5],[1,2],[6,2]]}`),
		wPost("/v1/instance/load", `{"relation":"S","rows":[[5,3],[5,4],[5,6],[2,5]]}`),
		wPost("/v1/instance/load", `{"relation":"T","rows":[[1,10],[2,20],[3,10]]}`),
		wPost("/v1/instance/load", `{"relation":"U","rows":[[10,7],[20,8],[10,9]]}`),
		wPost("/v1/instance/load", `{"rows":[[1,2]]}`),
		wPost("/v1/instance/load", `{"relation":"R","rows":[[1,2,3]]}`),
		wPost("/v1/instance/load", `{"relation":"R","rows":[[1,2]],"bogus":1}`),

		wPost("/v1/instance/access", `{`+wireSpec+`,"ks":[0,4,99,-1]}`),
		wPost("/v1/instance/access", `{`+wireSharded+`,"ks":[0,4]}`),
		wPost("/v1/instance/access", `{`+wireSharded+`,"shard_by":"y","ks":[1]}`),
		wPost("/v1/instance/access", `{`+wireSelfJoin+`,"ks":[0]}`),
		wPost("/v1/instance/access", `{`+wireSum+`,"ks":[0,4]}`),
		wPost("/v1/instance/access", `{`+wireHard+`,"ks":[0,4]}`),
		wPost("/v1/instance/access", `{`+wireFD+`,"ks":[0,4]}`),
		wPost("/v1/instance/access", `{`+wireSpec+`}`),
		wPost("/v1/instance/access", `{"query":"not a query","ks":[0]}`),
		wPost("/v1/instance/access", `{`+wireSpec+`,"bogus":1}`),
		wPost("/v1/instance/access", `{"query": `),

		wPost("/v1/instance/range", `{`+wireSpec+`,"k0":1,"k1":4}`),
		wPost("/v1/instance/range", `{`+wireSharded+`,"k0":1,"k1":4}`),
		wPost("/v1/instance/range", `{`+wireSpec+`,"k0":2,"k1":2}`),
		wPost("/v1/instance/range", `{`+wireSpec+`,"k0":0,"k1":1000}`),
		wPost("/v1/instance/range", `{`+wireSpec+`,"k0":0,"k1":99999999}`),
		wPost("/v1/instance/range", `{"query":"not a query","k0":0,"k1":1}`),

		wPost("/v1/instance/select", `{`+wireSpec+`,"k":2}`),
		wPost("/v1/instance/select", `{`+wireHard+`,"k":2}`),
		wPost("/v1/instance/select", `{`+wireSum+`,"k":2}`),
		wPost("/v1/instance/select", `{`+wireFD+`,"k":2}`),
		wPost("/v1/instance/select", `{`+wireSpec+`,"k":1000}`),
		wPost("/v1/instance/select", `{"query":"not a query","k":0}`),

		wPost("/v1/instance/classify", `{`+wireSpec+`}`),
		wPost("/v1/instance/classify", `{`+wireHard+`}`),
		wPost("/v1/instance/classify", `{`+wireHard+`,"problem":"selection-lex"}`),
		wPost("/v1/instance/classify", `{`+wireFD+`}`),
		wPost("/v1/instance/classify", `{`+wireSum+`,"problem":"direct-access-sum"}`),
		wPost("/v1/instance/classify", `{`+wireSum+`,"problem":"selection-sum"}`),
		wPost("/v1/instance/classify", `{`+wireSpec+`,"problem":"nonsense"}`),

		wPost("/v1/instance/count", `{"query":"Q(x, y, z) :- R(x, y), S(y, z)"}`),
		wPost("/v1/instance/count", `{"query":"Q(x, y, z) :- R(x, y), S(y, z)","shards":2}`),
		wPost("/v1/instance/count", `{"query":"Q(x, y, z) :- R(x, y), R(y, z)","shards":2}`),
		wPost("/v1/instance/count", `{"query":"broken("}`),
		wPost("/v1/instance/count", `{"query":"Q(x, y, z) :- R(x, y), S(y, z)","order":"x"}`),
	)

	wr.section("single node: registry")
	wr.run(h,
		wPost("/v1/queries", `{"name":"q",`+wireSpec+`}`),
		wPost("/v1/queries", `{"name":"qs",`+wireSharded+`,"shard_by":"y"}`),
		wPost("/v1/queries", `{"name":"qn",`+wireSelfJoin+`}`),
		wPost("/v1/queries", `{"name":"qsum",`+wireSum+`}`),
		wPost("/v1/queries", `{"name":"qhard",`+wireHard+`}`),
		wPost("/v1/queries", `{"name":"qfd",`+wireFD+`,"strict":true}`),
		wPost("/v1/queries", `{"name":"strict",`+wireHard+`,"strict":true}`),
		wPost("/v1/queries", `{"name":"strict",`+wireSpec+`,"strict":true}`),
		wPost("/v1/queries", `{"name":"bad","query":"not a query"}`),
		wPost("/v1/queries", `{`+wireSpec+`}`),
		wPost("/v1/queries", `{"name":"q",`+wireSpec+`,"bogus":1}`),
		wGet("/v1/queries"),
		wGet("/v1/queries/q"),
		wGet("/v1/queries/qs"),
		wGet("/v1/queries/nope"),
	)

	wr.section("single node: probes by name")
	wr.run(h,
		wPost("/v1/queries/q/access", `{"ks":[0,4,99,-1]}`),
		wPost("/v1/queries/qs/access", `{"ks":[0,4]}`),
		wPost("/v1/queries/qn/access", `{"ks":[0]}`),
		wPost("/v1/queries/qsum/access", `{"ks":[0,4]}`),
		wPost("/v1/queries/qhard/access", `{"ks":[0,4]}`),
		wPost("/v1/queries/q/access", `{}`),
		wPost("/v1/queries/q/access", `{`+wireSpec+`,"ks":[0]}`),
		wPost("/v1/queries/q/access", `{"ks": `),
		wPost("/v1/queries/nope/access", `{"ks":[0]}`),

		wPost("/v1/queries/q/range", `{"k0":1,"k1":4}`),
		wPost("/v1/queries/qs/range", `{"k0":1,"k1":4}`),
		wPost("/v1/queries/q/range", `{"k0":2,"k1":2}`),
		wPost("/v1/queries/q/range", `{"k0":0,"k1":1000}`),
		wPost("/v1/queries/q/range", `{"k0":0,"k1":99999999}`),
		wPost("/v1/queries/q/range", `{"query":"Q(x) :- R(x, y)","k0":0,"k1":1}`),
		wPost("/v1/queries/nope/range", `{"k0":0,"k1":1}`),

		wPost("/v1/queries/q/select", `{"k":2}`),
		wPost("/v1/queries/qhard/select", `{"k":2}`),
		wPost("/v1/queries/qsum/select", `{"k":2}`),
		wPost("/v1/queries/q/select", `{"k":1000}`),
		wPost("/v1/queries/nope/select", `{"k":0}`),

		wPost("/v1/queries/q/count", `{}`),
		wPost("/v1/queries/qs/count", `{}`),
		wPost("/v1/queries/nope/count", `{}`),

		wPost("/v1/queries/q/classify", `{}`),
		wPost("/v1/queries/qhard/classify", `{"problem":"direct-access-lex"}`),
		wPost("/v1/queries/qhard/classify", `{"problem":"selection-lex"}`),
		wPost("/v1/queries/qfd/classify", `{}`),
		wPost("/v1/queries/qfd/classify", `{"problem":"selection-lex"}`),
		wPost("/v1/queries/qfd/access", `{"ks":[0,4]}`),
		wPost("/v1/queries/qfd/select", `{"k":4}`),
		wPost("/v1/queries/q/classify", `{"problem":"nonsense"}`),
		wPost("/v1/queries/nope/classify", `{}`),
	)

	wr.section("single node: cursors")
	wr.run(h,
		wPost("/v1/queries/q/cursor", `{"start":1}`),
		wGet("/v1/cursors/<cursor>/next?n=2"),
		wireStep{method: "GET", path: "/v1/cursors/<cursor>/next?n=1", ndjson: true},
		wGet("/v1/cursors/<cursor>/next"),
		wGet("/v1/cursors/<cursor>/next?n=2"),
		wGet("/v1/cursors/<cursor>/next?n=zero"),
		wDel("/v1/cursors/<cursor>"),
		wDel("/v1/cursors/<cursor>"),
		wGet("/v1/cursors/<cursor>/next"),
		wPost("/v1/queries/q/cursor", `{}`),
		wireStep{method: "GET", path: "/v1/cursors/<cursor>/next", ndjson: true},
		wPost("/v1/queries/q/cursor", `{"start":1000}`),
		wPost("/v1/queries/q/cursor", `{"start":1,"bogus":1}`),
		wPost("/v1/queries/nope/cursor", `{}`),
	)

	wr.section("single node: writes")
	wr.run(h,
		wPost("/v1/write", `{"writes":[{"relation":"R","insert":[[7,5]]},{"relation":"S","insert":[[9,9]],"delete":[[5,6]]}]}`),
		wPost("/v1/queries/q/access", `{"ks":[0,6,7]}`),
		wPost("/v1/write", `{"writes":[]}`),
		wPost("/v1/write", `{"writes":[{"insert":[[1,2]]}]}`),
		wPost("/v1/write", `{"writes":[{"relation":"R","insert":[[1,2],[3]]}]}`),
		wPost("/v1/write", `{"writes":[{"relation":"R","insert":[[]]}]}`),
		wPost("/v1/write", `{"writes":[{"relation":"R","insert":[[1,2,3]]}]}`),
		wPost("/v1/write", `{"writes":[{"relation":"R","upsert":[[1,2]]}]}`),
	)

	wr.section("single node: eviction and probes")
	wr.run(h,
		wDel("/v1/queries/qn"),
		wDel("/v1/queries/qn"),
		wGet("/healthz"),
		wGet("/readyz"),
		wPost("/access", `{`+wireSpec+`,"ks":[0]}`),
	)

	// The durability endpoints: absent without a snapshot directory;
	// with one, a checkpoint persists every structure (the sharded
	// registration shares the plain one's).
	wr.section("snapshots")
	wr.run(h, wPost("/v1/snapshots", ""))
	se := engine.New(nil, engine.Options{})
	t.Cleanup(func() { se.Close() })
	wr.run(NewHandlerWith(se, Config{SnapshotDir: t.TempDir()}),
		wPost("/v1/instance/load", `{"relation":"R","rows":[[1,5],[1,2],[6,2]]}`),
		wPost("/v1/instance/load", `{"relation":"S","rows":[[5,3],[5,4],[5,6],[2,5]]}`),
		wPost("/v1/queries", `{"name":"q",`+wireSpec+`}`),
		wPost("/v1/queries", `{"name":"qs",`+wireSharded+`}`),
		wPost("/v1/queries", `{"name":"qsum",`+wireSum+`}`),
		wGet("/v1/snapshots"),
		wPost("/v1/snapshots", ""),
		wGet("/v1/snapshots"),
		wPost("/v1/instance/load", `{"relation":"R","rows":[[8,5]]}`),
		wPost("/v1/queries/q/count", `{}`),
		wPost("/v1/snapshots/<snapshot>/restore", ""),
		wGet("/v1/queries/q"),
		wPost("/v1/snapshots/nope.rka/restore", ""),
		wPost("/v1/snapshots/snapshot-00000000000000000001-v1.rka/restore", ""),
	)

	// A coordinator owns no data and refuses both mutation endpoints.
	wr.section("coordinator")
	wr.run(NewHandler(engine.New(nil, engine.Options{Remote: noCluster{}})),
		wPost("/v1/write", `{"writes":[{"relation":"R","insert":[[1,2]]}]}`),
		wPost("/v1/instance/load", `{"relation":"R","rows":[[1,2]]}`),
	)

	// A broken WAL, seen by a request that passed the degraded gate on a
	// health sample taken just before the break — then, once the sample
	// refreshes, shed at the gate.
	wr.section("broken WAL")
	inj := faultfs.NewInjector(faultfs.OS())
	we, _, err := engine.Open(t.TempDir(), nil, engine.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { we.Close() })
	if err := we.AddRows("R", [][]values.Value{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	wh := NewHandler(we)
	pinHealth(wh)
	inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 2, Mode: faultfs.ModeShortWrite})
	inj.Inject(faultfs.Fault{Op: faultfs.OpTruncate, Nth: 1, Mode: faultfs.ModeFail})
	if err := we.AddRows("R", [][]values.Value{{2, 2}}); err == nil {
		t.Fatal("write under double fault succeeded")
	}
	wr.run(wh,
		wPost("/v1/write", `{"writes":[{"relation":"R","insert":[[3,3]]}]}`),
		wPost("/v1/instance/load", `{"relation":"R","rows":[[3,3]]}`),
	)
	s := wh.(apiHandler).s
	s.healthMu.Lock()
	s.healthAt = time.Time{}
	s.healthMu.Unlock()
	wr.run(wh,
		wPost("/v1/write", `{"writes":[{"relation":"R","insert":[[3,3]]}]}`),
		wPost("/v1/instance/load", `{"relation":"R","rows":[[3,3]]}`),
		wGet("/readyz"),
	)

	// Admission: the body cap and the per-client rate limit.
	wr.section("limits")
	le := engine.New(nil, engine.Options{})
	if err := le.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	lh := NewHandlerWith(le, Config{MaxBodyBytes: 64, RatePerSec: 0.001, RateBurst: 4})
	big := strings.Repeat("[1,2],", 40) + "[1,2]"
	wr.run(lh,
		wPost("/v1/queries", `{"name":"r","query":"Q(x, y) :- R(x, y)"}`),
		wPost("/v1/queries/r/access", `{"ks":[`+strings.Repeat("0,", 60)+`0]}`),
		wPost("/v1/write", `{"writes":[{"relation":"R","insert":[`+big+`]}]}`),
		wPost("/v1/instance/load", `{"relation":"R","rows":[`+big+`]}`),
		wPost("/v1/queries/r/access", `{"ks":[0]}`),
	)
	return wr.out.String()
}

// TestWireGolden diffs the transcript of every route against
// testdata/wire.golden, so any change to a status code, a key, a key's
// order or an omitempty rule is a reviewed diff of that file. Run with
// -update-wire to rewrite it.
func TestWireGolden(t *testing.T) {
	got := wireTranscript(t)
	if *updateWire {
		if err := os.WriteFile("testdata/wire.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("wire transcript differs from testdata/wire.golden at line %d:\n got: %s\nwant: %s\n"+
				"(rerun with -update-wire if the change is deliberate and review the diff)", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("wire transcript has %d lines, testdata/wire.golden %d", len(gl), len(wl))
}

// wireRequestTypes is every request body internal/api declares, by the
// route generation that decodes it.
var wireRequestTypes = []any{
	api.LoadRequest{}, api.CountRequest{}, api.RegisterRequest{}, api.CursorRequest{}, api.WriteRequest{},
	api.AccessRequest{}, api.RangeRequest{}, api.SelectRequest{}, api.ClassifyRequest{},
	api.InstanceAccessRequest{}, api.InstanceRangeRequest{}, api.InstanceSelectRequest{}, api.InstanceClassifyRequest{},
}

// FuzzRequestBodies feeds arbitrary bytes to the server's own decode
// (strict, size-capped) as every request type: it never panics, a
// refusal is a 400 or a 413 with the error envelope, and an accepted
// body re-encodes to bytes that are accepted again and re-encode to
// themselves. Seeded with every request body of testdata/wire.golden.
func FuzzRequestBodies(f *testing.F) {
	golden, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if parts := strings.SplitN(line, " ", 4); len(parts) == 4 && parts[0] == ">" && parts[1] == "POST" {
			f.Add([]byte(parts[3]))
		}
	}
	s := &server{maxBody: 1 << 12}
	decode := func(body []byte, into any) (*httptest.ResponseRecorder, bool) {
		rec := httptest.NewRecorder()
		return rec, s.decode(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), into)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, typ := range wireRequestTypes {
			v := reflect.New(reflect.TypeOf(typ)).Interface()
			rec, ok := decode(body, v)
			if !ok {
				var envelope api.Error
				if (rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge) ||
					json.Unmarshal(rec.Body.Bytes(), &envelope) != nil || envelope.Error == "" {
					t.Fatalf("%T refused %q with %d %s", typ, body, rec.Code, rec.Body)
				}
				continue
			}
			first, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%T accepted %q but does not encode: %v", typ, body, err)
			}
			if len(first) > int(s.maxBody) {
				continue // an accepted body may re-encode larger than the cap (escapes)
			}
			again := reflect.New(reflect.TypeOf(typ)).Interface()
			if _, ok := decode(first, again); !ok {
				t.Fatalf("%T: %q re-encoded to %q, which is refused", typ, body, first)
			}
			if second, _ := json.Marshal(again); !bytes.Equal(first, second) {
				t.Fatalf("%T: %q round-trips %q → %q", typ, body, first, second)
			}
		}
	})
}

// TestWireTypesDeclaredOnce keeps every /v1 body declared in
// internal/api alone: no non-test file of internal/serve or client may
// declare a struct field with a JSON tag, except the health and
// readiness bodies, which no client decodes.
func TestWireTypesDeclaredOnce(t *testing.T) {
	allowed := map[string]bool{"healthzResponse": true, "readyzResponse": true}
	for _, dir := range []string{".", "../../client"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				var owner string // the enclosing named type, "" inside a function
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						owner = n.Name.Name
					case *ast.FuncDecl:
						owner = ""
					case *ast.Field:
						if n.Tag != nil && strings.Contains(n.Tag.Value, `json:"`) && !allowed[owner] {
							t.Errorf("%s: field %v carries %s: declare the body in internal/api", name, n.Names, n.Tag.Value)
						}
					}
					return true
				})
			}
		}
	}
}
