package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/workload"
)

// benchServer registers one prepared query over a generated instance.
func benchServer(b *testing.B, n int) (*httptest.Server, int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	_, in := workload.TwoPath(rng, n, n/8, 0.3)
	e := engine.New(in, engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	b.Cleanup(srv.Close)
	pq, err := e.Register("bench", engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		b.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		b.Fatal(err)
	}
	return srv, h.Total()
}

// BenchmarkNDJSONStream measures end-to-end cursor streaming: one op
// opens a cursor and consumes a 4096-row NDJSON window over real HTTP,
// reporting bytes/s of stream payload.
func BenchmarkNDJSONStream(b *testing.B) {
	srv, total := benchServer(b, 1<<14)
	window := int64(4096)
	if window > total {
		window = total
	}
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := post0(b, client, srv.URL+"/v1/queries/bench/cursor", `{"start":0}`)
		var cr api.CursorResponse
		decodeBody(b, resp, &cr)

		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/cursors/"+cr.Cursor+"/next?n=4096", nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Accept", "application/x-ndjson")
		sresp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if sresp.StatusCode != http.StatusOK {
			b.Fatalf("stream status %d", sresp.StatusCode)
		}
		nbytes, err := io.Copy(io.Discard, bufio.NewReader(sresp.Body))
		sresp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(nbytes)

		req, err = http.NewRequest(http.MethodDelete, srv.URL+"/v1/cursors/"+cr.Cursor, nil)
		if err != nil {
			b.Fatal(err)
		}
		dresp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		dresp.Body.Close()
	}
}

func post0(b *testing.B, client *http.Client, url, body string) *http.Response {
	b.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		b.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	return resp
}

func decodeBody(b *testing.B, resp *http.Response, into any) {
	b.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		b.Fatal(err)
	}
}
