package rpc

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"rankedaccess/internal/order"
	"rankedaccess/internal/trace"
)

// TestBelowFloorClientRefused pins that every version below the floor
// gets no handshake reply, so the peer fails at connect, not mid-call:
// the never-shipped v1; v2, whose coordinators may still send the
// single-answer kinds this build no longer serves; v3, whose
// coordinators read an AccessBatch response without its ranks; and v4,
// whose coordinators send an AccessBatch request without its pricing
// flag and read a Prepare response without its group lists. The
// versions are literals: lowering the floor must fail here.
func TestBelowFloorClientRefused(t *testing.T) {
	b := &fakeBackend{total: 10}
	_, lis := startServer(t, b, nil)
	for _, ver := range []uint16{0, 1, 2, 3, 4} {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeHandshake(conn, ver); err != nil {
			t.Fatal(err)
		}
		var buf [8]byte
		if _, err := io.ReadFull(conn, buf[:]); err == nil {
			t.Errorf("version-%d client got a handshake reply %v", ver, buf)
		}
		conn.Close()
	}
}

// TestFutureClientNegotiatedDown pins that a client offering a newer
// version than the server speaks — v6 — is answered with the server's
// own.
func TestFutureClientNegotiatedDown(t *testing.T) {
	b := &fakeBackend{total: 10}
	_, lis := startServer(t, b, nil)
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeHandshake(conn, 6); err != nil {
		t.Fatal(err)
	}
	ver, err := readHandshake(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 5 || ProtoVersion != 5 {
		t.Fatalf("negotiated a v6 offer to %d against ProtoVersion %d, want 5", ver, ProtoVersion)
	}
}

// TestTraceStitchesAcrossRPC runs a traced client call against a
// traced server and asserts both processes' stores hold the same trace
// id, with the server's root span parented on the client span.
func TestTraceStitchesAcrossRPC(t *testing.T) {
	b := &fakeBackend{total: 10}
	srv, lis := startServer(t, b, nil)
	srvTracer := trace.New(trace.Options{Rate: 0, Buffer: 16}) // only kept via the wire's sampled flag
	srv.SetTracer(srvTracer)

	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	cliTracer := trace.New(trace.Options{Rate: 1, Buffer: 16})
	c.SetTracer(cliTracer)

	if _, _, err := c.Rank(context.Background(), testSpec(), 7, order.Answer{2}); err != nil {
		t.Fatalf("Rank: %v", err)
	}

	cliTraces := cliTracer.Store().Snapshot()
	if len(cliTraces) != 1 {
		t.Fatalf("client stored %d traces, want 1", len(cliTraces))
	}
	cli := cliTraces[0]
	if cli.Root().Name != "rarc.client.rank" || cli.Root().Kind != trace.KindClient {
		t.Fatalf("client root: %+v", cli.Root())
	}

	// The server commits its trace after writing the response; poll.
	var srvTraces []*trace.Trace
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srvTraces = srvTracer.Store().Snapshot(); len(srvTraces) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(srvTraces) != 1 {
		t.Fatalf("server stored %d traces, want 1", len(srvTraces))
	}
	sv := srvTraces[0]
	if sv.ID != cli.ID {
		t.Fatalf("trace ids differ: client %s, server %s", cli.ID, sv.ID)
	}
	if sv.Root().Name != "rarc.server.rank" || sv.Root().Kind != trace.KindServer {
		t.Fatalf("server root: %+v", sv.Root())
	}
	if sv.Root().Parent != cli.Root().ID {
		t.Fatalf("server root parent %s, want client span %s", sv.Root().Parent, cli.Root().ID)
	}
	if sv.Reason != "head" {
		t.Fatalf("server keep reason %q, want head (propagated sampled flag)", sv.Reason)
	}
}

// TestUntracedCallCarriesZeroField pins the v2 wire shape: with no
// tracer, the client still sends the 25-byte field, all zero.
func TestUntracedCallCarriesZeroField(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := readHandshake(conn); err != nil {
			return
		}
		if err := writeHandshake(conn, ProtoVersion); err != nil {
			return
		}
		req, err := readFrame(conn, nil)
		if err != nil {
			return
		}
		got <- req
		// Minimal OK response so the client call completes.
		d := &dec{b: req}
		id := d.u64()
		e := &enc{}
		e.frame()
		e.u64(id)
		e.u8(uint8(KindHealth))
		e.u8(statusOK)
		e.u8(1)
		e.u32(0)
		_ = writeFrame(conn, e.b)
	}()

	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	req := <-got
	// reqID(8) | kind(1) | deadline(4) | trace(25) for a bodyless call.
	const traceContextLen = 1 + 16 + 8 // flags | trace id | span id
	if len(req) != 8+1+4+traceContextLen {
		t.Fatalf("v2 bodyless request is %d bytes, want %d", len(req), 8+1+4+traceContextLen)
	}
	tf := req[13:]
	for i, v := range tf {
		if v != 0 {
			t.Fatalf("untraced trace field byte %d = %#x (deadline=%d)", i, v, binary.LittleEndian.Uint32(req[9:13]))
		}
	}
}
