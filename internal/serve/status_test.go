package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/faultfs"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/values"
)

// staleCluster is a coordinator's cluster whose nodes' data moved past
// every prepared version.
type staleCluster struct{ noCluster }

func (staleCluster) BuildRemote(context.Context, engine.Spec) (*engine.RemoteHandle, error) {
	return nil, fmt.Errorf("node a: %w", rpc.ErrStaleVersion)
}

// TestStatusParity sends one fault to both generations of an operation
// — the one-shot and the by-name probe, the typed batch and the bulk
// load — and requires the one status the table (statusFor) assigns it,
// with a Retry-After exactly when that status is 503.
func TestStatusParity(t *testing.T) {
	single := engine.New(nil, engine.Options{})
	t.Cleanup(func() { single.Close() })
	if err := single.AddRows("R", [][]values.Value{{1, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Register("q", engine.Spec{Query: "Q(x, y) :- R(x, y)"}); err != nil {
		t.Fatal(err)
	}

	inj := faultfs.NewInjector(faultfs.OS())
	walled, _, err := engine.Open(t.TempDir(), nil, engine.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { walled.Close() })
	if err := walled.AddRows("R", [][]values.Value{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	// The degraded gate would shed both writes alike; pin its sample so
	// the requests reach the WAL, as they do between two samples.
	brokenWAL := NewHandler(walled)
	pinHealth(brokenWAL)
	inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 2, Mode: faultfs.ModeShortWrite})
	inj.Inject(faultfs.Fault{Op: faultfs.OpTruncate, Nth: 1, Mode: faultfs.ModeFail})
	if err := walled.AddRows("R", [][]values.Value{{2, 2}}); err == nil {
		t.Fatal("write under double fault succeeded")
	}

	const (
		spec  = `"query":"Q(x, y) :- R(x, y)"`
		write = `{"writes":[{"relation":"R","insert":[[3,3]]}]}`
		load  = `{"relation":"R","rows":[[3,3]]}`
	)
	type call struct{ path, body string }
	cases := []struct {
		fault  string
		h      http.Handler
		status int
		calls  []call
	}{
		{"select out of range", NewHandler(single), http.StatusRequestedRangeNotSatisfiable, []call{
			{"/v1/instance/select", `{` + spec + `,"k":1000}`},
			{"/v1/queries/q/select", `{"k":1000}`},
		}},
		{"range out of range", NewHandler(single), http.StatusRequestedRangeNotSatisfiable, []call{
			{"/v1/instance/range", `{` + spec + `,"k0":0,"k1":1000}`},
			{"/v1/queries/q/range", `{"k0":0,"k1":1000}`},
		}},
		{"write against a coordinator", NewHandler(engine.New(nil, engine.Options{Remote: noCluster{}})), http.StatusForbidden, []call{
			{"/v1/write", write},
			{"/v1/instance/load", load},
		}},
		{"shard node past the prepared version", NewHandler(engine.New(nil, engine.Options{Remote: staleCluster{}})), http.StatusGone, []call{
			{"/v1/instance/access", `{` + spec + `,"ks":[0]}`},
			{"/v1/instance/range", `{` + spec + `,"k0":0,"k1":1}`},
			{"/v1/instance/select", `{` + spec + `,"k":0}`},
			{"/v1/queries", `{"name":"q",` + spec + `}`},
		}},
		{"write on a broken WAL", brokenWAL, http.StatusServiceUnavailable, []call{
			{"/v1/write", write},
			{"/v1/instance/load", load},
		}},
	}
	for _, tc := range cases {
		for _, c := range tc.calls {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			if rec.Code != tc.status {
				t.Errorf("%s: POST %s = %d, want %d (%s)", tc.fault, c.path, rec.Code, tc.status, rec.Body)
			}
			if retry := rec.Header().Get("Retry-After") != ""; retry != (tc.status == http.StatusServiceUnavailable) {
				t.Errorf("%s: POST %s: Retry-After present = %v", tc.fault, c.path, retry)
			}
		}
	}
}
