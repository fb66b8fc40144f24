package trace

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	_, root := New(Options{Rate: 1}).Start(context.Background(), "root", KindServer)
	sc := root.Context()
	if !sc.Valid() || !sc.Sampled() {
		t.Fatalf("root context not valid+sampled: %+v", sc)
	}
	hdr := sc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("traceparent shape: %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: %q -> %+v ok=%v, want %+v", hdr, got, ok, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad hex version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x",
		"00-4bf92f3577b34da6a3ce929d0e0e4736+00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v0 must end at flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	// Future versions may append -fields.
	if _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever"); !ok {
		t.Errorf("future-version traceparent with extra fields rejected")
	}
}

func TestHeadSamplingKeeps(t *testing.T) {
	tr := New(Options{Rate: 1, Buffer: 8})
	ctx, root := tr.Start(context.Background(), "root", KindServer)
	_, child := tr.Start(ctx, "child", KindInternal)
	child.SetAttr(Int("k", 7))
	child.End()
	root.End()
	traces := tr.Store().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("stored %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Reason != "head" {
		t.Fatalf("reason %q, want head", got.Reason)
	}
	if len(got.Spans) != 2 || got.Spans[0].Name != "root" || got.Spans[1].Name != "child" {
		t.Fatalf("spans: %+v", got.Spans)
	}
	if got.Spans[1].Parent != got.Spans[0].ID {
		t.Fatalf("child parent %v, want root id %v", got.Spans[1].Parent, got.Spans[0].ID)
	}
}

func TestRateZeroDropsCleanFastTraces(t *testing.T) {
	tr := New(Options{Rate: 0, Slow: time.Hour, Buffer: 8})
	for i := 0; i < 50; i++ {
		_, root := tr.Start(context.Background(), "root", KindServer)
		root.End()
	}
	if n := tr.Store().Len(); n != 0 {
		t.Fatalf("stored %d unsampled clean traces, want 0", n)
	}
}

func TestErrorAlwaysKept(t *testing.T) {
	tr := New(Options{Rate: 0, Buffer: 8})
	ctx, root := tr.Start(context.Background(), "root", KindServer)
	_, child := tr.Start(ctx, "child", KindClient)
	child.SetError(errors.New("peer unreachable"))
	child.End()
	root.End()
	traces := tr.Store().Snapshot()
	if len(traces) != 1 || traces[0].Reason != "error" {
		t.Fatalf("error trace not kept: %+v", traces)
	}
}

func TestSlowTailKept(t *testing.T) {
	tr := New(Options{Rate: 0, Slow: time.Nanosecond, Buffer: 8})
	_, root := tr.Start(context.Background(), "root", KindServer)
	time.Sleep(time.Millisecond)
	root.End()
	traces := tr.Store().Snapshot()
	if len(traces) != 1 || traces[0].Reason != "slow" {
		t.Fatalf("slow trace not kept: %+v", traces)
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	up := New(Options{Rate: 1, Buffer: 8})
	_, root := up.Start(context.Background(), "upstream", KindServer)
	hdr := root.Context().Traceparent()
	root.End()

	sc, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatal("parse failed")
	}
	down := New(Options{Rate: 0, Buffer: 8}) // would drop without the flag
	ctx := ContextWithRemote(context.Background(), sc)
	_, srv := down.Start(ctx, "rpc.server", KindServer)
	if srv.Context().TraceID != sc.TraceID {
		t.Fatalf("trace id not continued: %v vs %v", srv.Context().TraceID, sc.TraceID)
	}
	srv.End()
	traces := down.Store().Snapshot()
	if len(traces) != 1 || traces[0].ID != sc.TraceID {
		t.Fatalf("downstream did not keep remote-sampled trace: %+v", traces)
	}
	if traces[0].Spans[0].Parent != sc.SpanID {
		t.Fatalf("downstream root parent %v, want upstream span %v", traces[0].Spans[0].Parent, sc.SpanID)
	}
}

func TestSpanContextOf(t *testing.T) {
	if _, ok := SpanContextOf(context.Background()); ok {
		t.Fatal("empty context reported a trace")
	}
	tr := New(Options{Rate: 1})
	ctx, root := tr.Start(context.Background(), "root", KindServer)
	if sc, ok := SpanContextOf(ctx); !ok || sc.SpanID != root.Context().SpanID {
		t.Fatalf("active span context: %+v ok=%v", sc, ok)
	}
	root.End()
}

func TestStoreRingOverwrites(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 10; i++ {
		s.Add(&Trace{ID: TraceID{byte(i + 1)}, Reason: "head"})
	}
	snap := s.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap))
	}
	if snap[0].ID != (TraceID{10}) {
		t.Fatalf("newest first: got %v", snap[0].ID)
	}
	if s.Get(TraceID{1}) != nil {
		t.Fatal("evicted trace still found")
	}
	if s.Get(TraceID{9}) == nil {
		t.Fatal("recent trace not found")
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "x", KindServer)
	if s != nil || ctx != context.Background() {
		t.Fatal("nil tracer must return ctx unchanged and a nil span")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c2, sp := tr.Start(ctx, "x", KindInternal)
		sp.SetAttr(Int("k", 1))
		sp.AddEvent("e")
		sp.SetError(nil)
		sp.End()
		_ = c2
		if _, ok := SpanContextOf(c2); ok {
			t.Fatal("trace appeared from nowhere")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v per op, want 0", allocs)
	}
	if tr.Store() != nil {
		t.Fatal("nil tracer store must be nil")
	}
}

func TestExplorerListAndWaterfall(t *testing.T) {
	tr := New(Options{Rate: 1, Buffer: 8})
	ctx, root := tr.Start(context.Background(), "GET /v1/instance/access", KindServer)
	_, child := tr.Start(ctx, "rpc.Rank", KindClient)
	child.SetAttr(Str("peer", "127.0.0.1:9101"), Int("round", 3))
	child.AddEvent("retry", Str("why", "conn reset"))
	child.End()
	root.End()
	id := root.TraceIDString()

	h := tr.Store().Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?sort=dur", nil))
	var list struct {
		Traces []struct {
			ID     string `json:"id"`
			Root   string `json:"root"`
			Spans  int    `json:"spans"`
			Reason string `json:"reason"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v\n%s", err, rec.Body.String())
	}
	if len(list.Traces) != 1 || list.Traces[0].ID != id || list.Traces[0].Spans != 2 {
		t.Fatalf("list: %+v want id %s", list.Traces, id)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("waterfall status %d: %s", rec.Code, rec.Body.String())
	}
	var wf struct {
		ID    string `json:"id"`
		Spans []struct {
			Name   string         `json:"name"`
			Parent string         `json:"parent"`
			Attrs  map[string]any `json:"attrs"`
			Events []struct {
				Name string `json:"name"`
			} `json:"events"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &wf); err != nil {
		t.Fatalf("waterfall decode: %v", err)
	}
	if wf.ID != id || len(wf.Spans) != 2 {
		t.Fatalf("waterfall: %+v", wf)
	}
	if wf.Spans[1].Attrs["peer"] != "127.0.0.1:9101" || wf.Spans[1].Attrs["round"] != float64(3) {
		t.Fatalf("child attrs: %+v", wf.Spans[1].Attrs)
	}
	if len(wf.Spans[1].Events) != 1 || wf.Spans[1].Events[0].Name != "retry" {
		t.Fatalf("child events: %+v", wf.Spans[1].Events)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=ffffffffffffffffffffffffffffffff", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing trace status %d", rec.Code)
	}
}

func TestExporterOTLPShape(t *testing.T) {
	got := make(chan map[string]any, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m map[string]any
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			t.Errorf("payload decode: %v", err)
		}
		select {
		case got <- m:
		default:
		}
	}))
	defer srv.Close()

	exp := NewExporter(srv.URL, "ra-test")
	tr := New(Options{Rate: 1, Buffer: 8, Export: exp})
	ctx, root := tr.Start(context.Background(), "root", KindServer)
	_, child := tr.Start(ctx, "child", KindClient)
	child.SetError(errors.New("boom"))
	child.End()
	root.End()
	exp.Close()

	var m map[string]any
	select {
	case m = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("exporter never posted")
	}
	rs := m["resourceSpans"].([]any)[0].(map[string]any)
	attrs := rs["resource"].(map[string]any)["attributes"].([]any)[0].(map[string]any)
	if attrs["key"] != "service.name" {
		t.Fatalf("resource attrs: %+v", attrs)
	}
	spans := rs["scopeSpans"].([]any)[0].(map[string]any)["spans"].([]any)
	if len(spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(spans))
	}
	sp0 := spans[0].(map[string]any)
	if sp0["traceId"] != root.TraceIDString() || sp0["kind"] != float64(2) {
		t.Fatalf("root span: %+v", sp0)
	}
	sp1 := spans[1].(map[string]any)
	if sp1["parentSpanId"] == "" || sp1["status"].(map[string]any)["code"] != float64(2) {
		t.Fatalf("child span: %+v", sp1)
	}
	if sent, _ := exp.Stats(); sent != 1 {
		t.Fatalf("sent %d traces, want 1", sent)
	}
}

func TestSpanBufferCap(t *testing.T) {
	tr := New(Options{Rate: 1, Buffer: 2})
	ctx, root := tr.Start(context.Background(), "root", KindServer)
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, s := tr.Start(ctx, "c", KindInternal)
		s.End()
	}
	root.End()
	traces := tr.Store().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("stored %d", len(traces))
	}
	if len(traces[0].Spans) != maxSpansPerTrace {
		t.Fatalf("kept %d spans, want cap %d", len(traces[0].Spans), maxSpansPerTrace)
	}
	if traces[0].Dropped != 11 { // 10 extra children + the root itself
		t.Fatalf("dropped %d, want 11", traces[0].Dropped)
	}
}

// TestDetach: a subtree started under Detach(ctx) is a local trace of
// its own under ctx's span — same trace id, its root parented on that
// span — so it overruns its own buffer, not the span's, and the span's
// later children are kept.
func TestDetach(t *testing.T) {
	if _, ok := SpanContextOf(Detach(context.Background())); ok {
		t.Fatal("Detach gave an untraced context a trace")
	}
	tr := New(Options{Rate: 1, Buffer: 4})
	ctx, root := tr.Start(context.Background(), "request", KindServer)
	sub, fill := tr.Start(Detach(ctx), "fill", KindInternal)
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, s := tr.Start(sub, "round", KindInternal)
		s.End()
	}
	fill.End()
	_, after := tr.Start(ctx, "after", KindInternal)
	after.End()
	root.End()
	traces := tr.Store().Snapshot()
	if len(traces) != 2 {
		t.Fatalf("stored %d traces, want the request's and the fill's", len(traces))
	}
	for _, got := range traces {
		if got.ID != root.Context().TraceID {
			t.Fatalf("trace %v, want every span in %v", got.ID, root.Context().TraceID)
		}
		switch names := len(got.Spans); {
		case names == 2 && got.Dropped == 0 && got.Spans[0].Name == "request" && got.Spans[1].Name == "after":
		case names == maxSpansPerTrace && got.Dropped == 11 && slices.ContainsFunc(got.Spans, func(s SpanData) bool {
			return s.Name == "fill" && s.Parent == root.Context().SpanID
		}):
		default:
			t.Fatalf("trace of %d spans (%d dropped) starting %q: want the request with its later child, or the fill under it", names, got.Dropped, got.Spans[0].Name)
		}
	}
}
