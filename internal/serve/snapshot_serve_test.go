package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/snapshot"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// snapServer boots a handler with the snapshot endpoints enabled.
func snapServer(t *testing.T) (*engine.Engine, *httptest.Server, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	_, in := workload.TwoPath(rng, 512, 64, 0.3)
	e := engine.New(in, engine.Options{})
	dir := t.TempDir()
	srv := httptest.NewServer(NewHandlerWith(e, Config{SnapshotDir: dir}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { e.Close() })
	return e, srv, dir
}

func TestSnapshotEndpoints(t *testing.T) {
	e, srv, _ := snapServer(t)
	var reg api.QueryInfo
	post(t, srv, "/v1/queries", api.RegisterRequest{
		Name: "snap",
		Spec: api.Spec{Query: twoPath, Order: "x, y, z"},
	}, &reg)
	h, err := e.Prepare(engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.AccessRange(nil, 0, min(h.Total(), 64))
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint.
	var created api.SnapshotInfo
	if resp := post(t, srv, "/v1/snapshots", nil, &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if created.Structures == 0 || created.Registrations != 1 || !snapshot.ValidName(created.Name) {
		t.Fatalf("create response %+v", created)
	}

	// List shows it.
	var listed api.SnapshotList
	get(t, srv, "/v1/snapshots", &listed)
	if len(listed.Snapshots) != 1 || listed.Snapshots[0].Name != created.Name {
		t.Fatalf("list %+v, want the created snapshot", listed)
	}

	// Mutate the instance away from the snapshotted state.
	post(t, srv, "/v1/instance/load", api.LoadRequest{Relation: "R", Rows: [][]values.Value{{1 << 40, 1}}}, nil)

	// Restore brings the snapshotted answers back.
	var restored api.RestoreInfo
	if resp := post(t, srv, "/v1/snapshots/"+created.Name+"/restore", nil, &restored); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", resp.StatusCode)
	}
	if restored.Version <= created.Version {
		t.Fatalf("restore version %d did not move past %d", restored.Version, created.Version)
	}
	h2, err := e.Prepare(engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.AccessRange(nil, 0, min(h2.Total(), 64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored answers differ from the snapshotted ones")
	}

	// The registry came back with the snapshot.
	var info api.QueryInfo
	get(t, srv, "/v1/queries/snap", &info)
	if info.Query != twoPath {
		t.Fatalf("restored registration %+v", info)
	}

	// Stats expose the snapshot counters.
	st := getStats(t, srv)
	if st.Checkpoints != 1 || st.Restores != 1 || st.WarmStructures == 0 {
		t.Fatalf("stats %+v: want 1 checkpoint, 1 restore, warm structures", st)
	}
}

func TestSnapshotRestoreRejectsBadNames(t *testing.T) {
	_, srv, _ := snapServer(t)
	for _, name := range []string{"%2e%2e%2fetc", "nope.rka", "snapshot-x" + snapshot.Ext} {
		resp, err := srv.Client().Post(srv.URL+"/v1/snapshots/"+name+"/restore", "application/json", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("restore of %q: status %d, want 400", name, resp.StatusCode)
		}
	}
	// A well-formed name that does not exist is 404.
	missing := snapshot.FileName(1, 1)
	resp, err := srv.Client().Post(srv.URL+"/v1/snapshots/"+missing+"/restore", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("restore of missing snapshot: status %d, want 404", resp.StatusCode)
	}
}

func TestSnapshotEndpointsUnmountedWithoutDir(t *testing.T) {
	e := engine.New(nil, engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/snapshots", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshots without -snapshot-dir: status %d, want 404", resp.StatusCode)
	}
}
