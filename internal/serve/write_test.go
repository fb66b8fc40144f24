package serve

import (
	"net/http"
	"testing"

	"rankedaccess/internal/api"
	"rankedaccess/internal/values"
)

func TestV1WriteBatch(t *testing.T) {
	srv, e := v1Server(t, 256, 7)
	info := register(t, srv, "w", twoPath, "x, y, z")
	v0 := e.Version()

	// One atomic batch across two relations: inserts that join into new
	// answers plus a delete, published as a single new version.
	var wr api.WriteResult
	resp := post(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{90001, 70007}, {90002, 70007}}},
		{Relation: "S", Insert: [][]values.Value{{70007, 1}, {70007, 2}}, Delete: [][]values.Value{{70007, 999}}},
	}}, &wr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write: status %d", resp.StatusCode)
	}
	if wr.Version != v0+1 || wr.Inserted != 4 || wr.Deleted != 1 {
		t.Fatalf("write response = %+v, want version %d, 4 inserted, 1 deleted", wr, v0+1)
	}

	// The registered query sees the joined rows: the two new R rows each
	// match the two new S rows.
	var cnt api.CountResponse
	post(t, srv, "/v1/queries/w/count", struct{}{}, &cnt)
	if cnt.Count != info.Total+4 {
		t.Fatalf("count after write = %d, want %d", cnt.Count, info.Total+4)
	}

	// The catch-up was a delta overlay, not a rebuild, and the batch is
	// counted.
	st := getStats(t, srv)
	if st.WALBatches != 1 || st.DeltaEpochs < 1 || st.DeltaRebuilds != 0 {
		t.Fatalf("write-path stats = %+v", st)
	}

	// An empty batch publishes nothing.
	var empty api.WriteResult
	post(t, srv, "/v1/write", api.WriteRequest{}, &empty)
	if empty.Version != wr.Version || empty.Inserted != 0 {
		t.Fatalf("empty write = %+v, want version %d", empty, wr.Version)
	}

	// Ragged rows in one entry are rejected before anything applies.
	bad := postRaw(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{1, 2}, {3}}},
	}})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged write: %d, want 400", bad.StatusCode)
	}
	// A wrong-arity batch against an existing relation is rejected too.
	bad2 := postRaw(t, srv, "/v1/write", api.WriteRequest{Writes: []api.Write{
		{Relation: "R", Insert: [][]values.Value{{1, 2, 3}}},
	}})
	if bad2.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-arity write: %d, want 400", bad2.StatusCode)
	}
	if e.Version() != wr.Version {
		t.Fatalf("rejected writes moved the version: %d, want %d", e.Version(), wr.Version)
	}
}
