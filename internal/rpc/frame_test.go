package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rankedaccess/internal/order"
)

// countingConn counts the Read and Write calls on a connection: each is
// one system call on a TCP socket (a Read that had to wait is still one
// call here), so the counts are the frame layer's syscall budget, exact
// and repeatable where a timing is neither. Reads count when they
// return and Writes when they start, so that a peer which has seen the
// bytes has also seen the count.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// lastConnListener wraps every accepted connection in a countingConn
// and hands the latest to the test.
type lastConnListener struct {
	net.Listener
	last atomic.Pointer[countingConn]
}

func (l *lastConnListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.last.Store(cc)
	return cc, nil
}

// quietBackend answers RankBatch from preallocated slices, so that an
// allocation count over a round trip is the protocol's and not the
// backend's.
type quietBackend struct {
	*fakeBackend
	ranks []int64
	exact []bool
}

func (q *quietBackend) RankBatch(ctx context.Context, spec Spec, version uint64, answers []order.Answer) ([]int64, []bool, error) {
	return q.ranks[:len(answers)*len(spec.Owned)], q.exact[:len(answers)], nil
}

// TestSyscallBudget pins what a frame costs: one RankBatch round trip on
// a warm pooled connection is exactly one Write per side and at most two
// Reads per side (one when the frame arrives whole, as it does on
// loopback). A frame writer that sends header and payload separately
// fails the Write count; an unbuffered reader fails the Read count.
func TestSyscallBudget(t *testing.T) {
	var ll *lastConnListener
	b := &quietBackend{fakeBackend: &fakeBackend{total: 10}, ranks: make([]int64, 2*MaxPivots), exact: make([]bool, MaxPivots)}
	_, lis := startServer(t, b, func(l net.Listener) net.Listener {
		ll = &lastConnListener{Listener: l}
		return ll
	})
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()

	// The client side is counted by pooling a connection the test dialed
	// and wrapped itself, through the client's own handshake.
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := &countingConn{Conn: raw}
	pc, err := handshake(cli, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	c.put(pc)

	ctx := context.Background()
	pivots := make([]order.Answer, 32)
	for i := range pivots {
		pivots[i] = order.Answer{int64(i), int64(-i)}
	}
	call := func() {
		ranks, exact, err := c.RankBatch(ctx, testSpec(), 7, pivots)
		if err != nil || len(ranks) != 2*len(pivots) || len(exact) != len(pivots) {
			t.Fatalf("RankBatch = %d ranks, %d flags, %v", len(ranks), len(exact), err)
		}
	}
	call() // warm: buffers sized, server handler parked in its next read
	srv := ll.last.Load()
	for round := 0; round < 5; round++ {
		cr, cw, sr, sw := cli.reads.Load(), cli.writes.Load(), srv.reads.Load(), srv.writes.Load()
		call()
		cr, cw, sr, sw = cli.reads.Load()-cr, cli.writes.Load()-cw, srv.reads.Load()-sr, srv.writes.Load()-sw
		if cw != 1 || sw != 1 {
			t.Fatalf("round %d: %d client and %d server Writes for one RPC, want exactly 1 each", round, cw, sw)
		}
		if cr < 1 || cr > 2 || sr < 1 || sr > 2 {
			t.Fatalf("round %d: %d client and %d server Reads for one RPC, want 1 or 2 each", round, cr, sr)
		}
	}
	if got := c.Stats().Calls[KindRankBatch]; got != 6 {
		t.Fatalf("%d RankBatch calls, want 6", got)
	}

	// The same round trip, in allocations, client and server together
	// (AllocsPerRun counts the whole process; the backend adds none): the
	// decoded request and response values, the per-call closures and the
	// request context are left — 12 — and no frame buffer. The parent
	// commit spent 32.
	if allocs := testing.AllocsPerRun(200, call); allocs > 16 {
		t.Fatalf("one RankBatch round trip allocates %.0f times, ceiling 16", allocs)
	}
}

// parentWriteFrame and parentReadFrame are verbatim copies of the frame
// functions of the commit before the single-write frame layer: the shape
// an old peer puts on, and expects from, the wire.
func parentWriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrBadFrame, len(payload), maxFrame)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func parentReadFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrBadFrame, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: payload CRC %08x, want %08x", ErrBadFrame, got, want)
	}
	return payload, nil
}

// gapWriter passes each Write through after a pause, so the reader sees
// the writes as separate arrivals.
type gapWriter struct {
	w   io.Writer
	gap time.Duration
}

func (g gapWriter) Write(p []byte) (int, error) {
	time.Sleep(g.gap)
	return g.w.Write(p)
}

// healthRequest is a bodyless Health request payload with the given id.
func healthRequest(id uint64) []byte {
	e := &enc{}
	(&reqHeader{id: id, kind: KindHealth, deadlineMillis: 1000}).encode(e)
	return e.b
}

// TestWireCompatibility pins that the frame layer changed system calls,
// not bytes: frames written the parent's way (two Writes, 5 ms apart) or
// trickled a byte at a time are read by the new reader, a frame from the
// new writer is read by the parent's reader, and a whole old-shaped peer
// interoperates with the new client and the new server. Versions 3 and 4
// changed no frame either, so the old-shaped peers below speak 4 (the
// literal in their handshakes): the frame code of a v2 or v3 peer is
// still good, its version offer is not (TestBelowFloorClientRefused).
func TestWireCompatibility(t *testing.T) {
	payload := bytes.Repeat([]byte("ranked access "), 500) // 7 KB: wider than the reader's 4 KB buffer

	t.Run("split and trickled frames", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go func() {
			_ = parentWriteFrame(gapWriter{a, 5 * time.Millisecond}, payload)
			var frame bytes.Buffer
			_ = parentWriteFrame(&frame, payload[:300])
			for _, c := range frame.Bytes() {
				if _, err := a.Write([]byte{c}); err != nil {
					return
				}
			}
		}()
		var buf []byte
		for _, want := range [][]byte{payload, payload[:300]} {
			got, err := readFrame(b, buf)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read %d bytes, %v; want the %d-byte payload", len(got), err, len(want))
			}
			buf = got
		}
	})

	t.Run("new writer, parent reader", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go func() {
			e := &enc{}
			e.frame()
			e.b = append(e.b, payload...)
			_ = writeFrame(a, e.b)
		}()
		got, err := parentReadFrame(b)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("parent reader got %d bytes, %v", len(got), err)
		}
	})

	t.Run("old client, new server", func(t *testing.T) {
		_, lis := startServer(t, &fakeBackend{total: 10}, nil)
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeHandshake(conn, 4); err != nil {
			t.Fatal(err)
		}
		if ver, err := readHandshake(conn); err != nil || ver != 4 {
			t.Fatalf("handshake = %d, %v", ver, err)
		}
		for id := uint64(1); id <= 3; id++ {
			if err := parentWriteFrame(gapWriter{conn, 5 * time.Millisecond}, healthRequest(id)); err != nil {
				t.Fatal(err)
			}
			resp, err := parentReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			d := &dec{b: resp}
			if gotID, gotKind := d.u64(), Kind(d.u8()); gotID != id || gotKind != KindHealth {
				t.Fatalf("response for request %d kind %d, want %d kind %d", gotID, gotKind, id, KindHealth)
			}
			if err := decodeStatus(d); err != nil {
				t.Fatal(err)
			}
			if h := (HealthInfo{Ready: d.u8() != 0, Reasons: d.strs()}); d.err() != nil || !h.Ready || len(h.Reasons) != 1 {
				t.Fatalf("Health = %+v, %v", h, d.err())
			}
		}
	})

	t.Run("new client, old server", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
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
			if err := writeHandshake(conn, 4); err != nil {
				return
			}
			for {
				req, err := parentReadFrame(conn)
				if err != nil {
					return
				}
				h := decodeReqHeader(&dec{b: req})
				e := &enc{}
				e.u64(h.id)
				e.u8(uint8(h.kind))
				e.u8(statusOK)
				e.bool(true)
				e.strs([]string{"old"})
				if err := parentWriteFrame(gapWriter{conn, 5 * time.Millisecond}, e.b); err != nil {
					return
				}
			}
		}()
		c := NewClient(lis.Addr().String(), Options{})
		defer c.Close()
		for i := 0; i < 3; i++ {
			h, err := c.Health(context.Background())
			if err != nil || !h.Ready || len(h.Reasons) != 1 || h.Reasons[0] != "old" {
				t.Fatalf("Health = %+v, %v", h, err)
			}
		}
	})
}

// TestHeaderClaimAllocation pins that a frame's claimed length buys no
// memory by itself: a header claiming maxFrame followed by EOF, or by a
// byte-at-a-time trickle that stalls into the read deadline, costs the
// reader one keepBuf step and a clean error — not the 64 MB the parent's
// reader allocated per header.
func TestHeaderClaimAllocation(t *testing.T) {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxFrame)
	allocated := func(read func() error) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}

	n, err := allocated(func() error {
		_, err := readFrame(bytes.NewReader(hdr[:]), nil)
		return err
	})
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("bare header read = %v, want an EOF", err)
	}
	if n > 128<<10 {
		t.Fatalf("a bare header claiming %d bytes allocated %d", maxFrame, n)
	}

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		if _, err := a.Write(hdr[:]); err != nil {
			return
		}
		for i := 0; i < 64; i++ {
			if _, err := a.Write([]byte{byte(i)}); err != nil {
				return
			}
		}
		// …and then nothing: the reader's deadline ends the frame.
	}()
	b.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	n, err = allocated(func() error {
		_, err := readFrame(b, nil)
		return err
	})
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stalled trickle read = %v, want a timeout", err)
	}
	if n > 128<<10 {
		t.Fatalf("a stalled trickle behind a header claiming %d bytes allocated %d", maxFrame, n)
	}

	// A frame that does arrive grows the buffer with it and is dropped by
	// the connection afterwards, so one large Range pins nothing.
	big := &enc{}
	big.frame()
	big.b = append(big.b, make([]byte, 3*keepBuf)...)
	var wire bytes.Buffer
	if err := writeFrame(&wire, big.b); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&wire, nil)
	if err != nil || len(got) != 3*keepBuf {
		t.Fatalf("large frame read %d bytes, %v", len(got), err)
	}
	if kept(got) != nil || cap(kept(make([]byte, 100, keepBuf))) != keepBuf {
		t.Fatal("kept must drop a buffer past keepBuf and keep one within it")
	}
}

// TestResponseNeverAliasesPooledBuffer is the regression test for the one
// hazard of connection-owned buffers: a response is decoded out of its
// connection's read buffer, so it must be decoded before the connection
// returns to the pool. Eight callers share a one-connection pool and
// check that every answer is their own; under -race a decode after put
// is also a reported data race.
func TestResponseNeverAliasesPooledBuffer(t *testing.T) {
	_, lis := startServer(t, &fakeBackend{total: 100}, nil)
	c := NewClient(lis.Addr().String(), Options{MaxIdle: 1})
	defer c.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := int64((g*50 + i) % 90)
				shards, pos := []int{1, 3, 1}, []int64{k, k + 1, k + 2}
				rows, ranks, err := c.AccessBatch(ctx, testSpec(), 7, shards, pos)
				if err != nil {
					t.Errorf("caller %d: AccessBatch: %v", g, err)
					return
				}
				for j, row := range rows {
					if want := (order.Answer{int64(shards[j])*100 + pos[j], -pos[j]}); fmt.Sprint(row) != fmt.Sprint(want) || ranks[2*j] != pos[j] || ranks[2*j+1] != pos[j] {
						t.Errorf("caller %d: AccessBatch row %d = %v ranked %v, want %v ranked %d", g, j, row, ranks[2*j:2*j+2], want, pos[j])
						return
					}
				}
				ranks, exact, err := c.RankBatch(ctx, testSpec(), 7, []order.Answer{{k, 0}, {k + 1, 0}})
				if err != nil || fmt.Sprint(ranks) != fmt.Sprint([]int64{k, k, k + 1, k + 1}) || exact[0] != (k%2 == 0) || exact[1] == exact[0] {
					t.Errorf("caller %d: RankBatch(%d) = %v, %v, %v", g, k, ranks, exact, err)
					return
				}
				win, err := c.Range(ctx, testSpec(), 7, 3, k, k+5)
				if err != nil || len(win) != 5 || win[0][0] != 300+k || win[4][1] != -(k+4) {
					t.Errorf("caller %d: Range(%d) = %v, %v", g, k, win, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNoGoroutineLeak pins that a server and a client take their
// goroutines with them: connection handlers, the accept loop and the
// client's idle reaper are gone after Close.
func TestNoGoroutineLeak(t *testing.T) {
	// Earlier tests' reapers and handlers may still be winding down: take
	// the baseline once the count holds still.
	base := runtime.NumGoroutine()
	for settled := 0; settled < 3; {
		time.Sleep(20 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == base {
			settled++
		} else {
			base, settled = n, 0
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&fakeBackend{total: 10})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	c := NewClient(lis.Addr().String(), Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := c.Health(context.Background()); err != nil {
					t.Errorf("Health: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if runtime.NumGoroutine() <= base {
		t.Fatalf("%d goroutines with a live server and client, baseline %d: the test counts nothing", runtime.NumGoroutine(), base)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close = %v", err)
	}
	// The reaper exits on its own schedule after Close signals it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
