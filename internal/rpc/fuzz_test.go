package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"rankedaccess/internal/order"
)

// FuzzBatchCodec feeds arbitrary bytes to the decoders of the batch
// kinds (AccessBatch request and its v4 response, RankBatch request and
// response) and of the answers block alone. Each must either fail
// cleanly or decode to a message that re-encodes and decodes back to
// itself; none may panic, none may hold more than the pivot cap allows
// however large a count the bytes claim, and an AccessBatch response
// whose rank count is not answers × owned shards is refused.
func FuzzBatchCodec(f *testing.F) {
	spec := testSpec()
	seed := func(encode func(*enc)) {
		e := &enc{}
		encode(e)
		f.Add(e.b)
	}
	seed((&AccessBatchReq{Spec: spec, Version: 7, Shards: []int{1, 3}, Pos: []int64{0, 41}}).encode)
	seed((&RankBatchReq{Spec: spec, Version: 7, Answers: []order.Answer{{1, 2}, {3, 4}}}).encode)
	seed((&RankBatchResp{Ranks: []int64{5, 6, 7, 8}, Exact: []bool{true, false}}).encode)
	accessResp := func(answers []order.Answer, ranks []int64) func(*enc) {
		return func(e *enc) { e.answers(answers); e.i64s(ranks) }
	}
	seed(accessResp([]order.Answer{{1, 2, 3}, {4, 5, 6}}, []int64{0, 9, 4, 3}))
	seed(func(e *enc) { e.answers([]order.Answer{{1, 2, 3}, {4, 5, 6}}) })
	// Two answers over two owned shards want four ranks: three, five or
	// a missing block is refused.
	seed(accessResp([]order.Answer{{1, 2}, {3, 4}}, []int64{1, 2, 3}))
	for _, ranks := range [][]int64{{1, 2, 3}, {1, 2, 3, 4, 5}, nil} {
		e := &enc{}
		accessResp([]order.Answer{{1, 2}, {3, 4}}, ranks)(e)
		d := &dec{b: e.b}
		if decodeAccessBatchResp(d, 2, 2); d.err() == nil {
			f.Fatalf("2 answers with %d ranks on 2 owned shards decoded", len(ranks))
		}
	}
	seed(func(e *enc) { e.u32(1 << 30); e.u32(1 << 30) })
	f.Add([]byte{})

	// capped checks that a decoded list holds no more than the pivot cap.
	capped := func(size func(any) int) func(*testing.T, any) {
		return func(t *testing.T, m any) {
			if n := size(m); n > MaxPivots {
				t.Fatalf("decoded %d entries, cap %d", n, MaxPivots)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data,
			func(d *dec) any { return decodeAccessBatchReq(d) },
			func(m any, e *enc) { r := m.(AccessBatchReq); r.encode(e) },
			capped(func(m any) int { return len(m.(AccessBatchReq).Pos) }))
		roundTrip(t, data,
			func(d *dec) any { return decodeRankBatchReq(d) },
			func(m any, e *enc) { r := m.(RankBatchReq); r.encode(e) },
			capped(func(m any) int { return len(m.(RankBatchReq).Answers) }))
		roundTrip(t, data,
			func(d *dec) any { return decodeRankBatchResp(d) },
			func(m any, e *enc) { r := m.(RankBatchResp); r.encode(e) },
			capped(func(m any) int { return len(m.(RankBatchResp).Exact) }))
		// The v4 AccessBatch response, read as the answer to as many
		// positions as its answers block claims, on two owned shards.
		n := 0
		if len(data) >= 8 {
			n = int(binary.LittleEndian.Uint32(data[4:8]))
		}
		roundTrip(t, data,
			func(d *dec) any { a, r := decodeAccessBatchResp(d, n, 2); return accessBatchResp{a, r} },
			func(m any, e *enc) { r := m.(accessBatchResp); accessResp(r.answers, r.ranks)(e) },
			func(t *testing.T, m any) {
				if r := m.(accessBatchResp); len(r.answers) > MaxPivots || len(r.ranks) != 2*len(r.answers) {
					t.Fatalf("decoded %d answers with %d ranks on 2 owned shards", len(r.answers), len(r.ranks))
				}
			})
		roundTrip(t, data,
			func(d *dec) any { return d.answers(MaxPivots) },
			func(m any, e *enc) { e.answers(m.([]order.Answer)) },
			capped(func(m any) int { return len(m.([]order.Answer)) }))
	})
}

// accessBatchResp is a decoded AccessBatch response, for roundTrip.
type accessBatchResp struct {
	answers []order.Answer
	ranks   []int64
}

// roundTrip decodes data as one whole message and, if that succeeds,
// checks the message (check may be nil) and that it survives encode →
// decode unchanged.
func roundTrip(t *testing.T, data []byte, decode func(*dec) any, encode func(any, *enc), check func(*testing.T, any)) {
	d := &dec{b: data}
	msg := decode(d)
	if d.err() != nil {
		return
	}
	if check != nil {
		check(t, msg)
	}
	e := &enc{}
	encode(msg, e)
	d2 := &dec{b: e.b}
	again := decode(d2)
	if err := d2.err(); err != nil {
		t.Fatalf("re-encoded message does not decode: %v", err)
	}
	if !reflect.DeepEqual(msg, again) {
		t.Fatalf("round trip changed the message:\n%+v\n%+v", msg, again)
	}
}

// roundTripFrames are the payloads TestRoundTrip's calls put on the wire,
// requests and OK responses alike, with one error response: the seed
// corpus of the frame and message fuzzers.
func roundTripFrames() [][]byte {
	spec := testSpec()
	var out [][]byte
	request := func(kind Kind, body func(*enc)) {
		e := &enc{}
		(&reqHeader{id: uint64(len(out) + 1), kind: kind, deadlineMillis: 10000}).encode(e)
		body(e)
		out = append(out, e.b)
	}
	response := func(kind Kind, status uint8, body func(*enc)) {
		e := &enc{}
		e.u64(uint64(len(out)))
		e.u8(uint8(kind))
		e.u8(status)
		body(e)
		out = append(out, e.b)
	}
	info := &PrepareInfo{Version: 7, Mode: "layered-lex", Totals: []int64{10, 10},
		Completed: []order.LexEntry{{Var: 0, Dir: order.Asc}, {Var: 1, Dir: order.Desc}}}
	request(KindPrepare, spec.encode)
	response(KindPrepare, statusOK, info.encode)
	request(KindCount, (&CountSpec{Query: "Q(x) :- R(x)", P: 4, ShardVar: "x", Owned: []int{0, 2}}).encode)
	response(KindCount, statusOK, func(e *enc) { e.i64(20) })
	request(KindAccessBatch, (&AccessBatchReq{Spec: spec, Version: 7, Shards: []int{3, 1}, Pos: []int64{4, 0}}).encode)
	response(KindAccessBatch, statusOK, func(e *enc) { e.answers([]order.Answer{{304, -4}, {100, 0}}); e.i64s([]int64{4, 4, 0, 0}) })
	request(KindRange, func(e *enc) { spec.encode(e); e.u64(7); e.u32(1); e.i64(2); e.i64(5) })
	response(KindRange, statusOK, func(e *enc) { e.answers([]order.Answer{{102, -2}, {103, -3}, {104, -4}}) })
	request(KindRankBatch, (&RankBatchReq{Spec: spec, Version: 7, Answers: []order.Answer{{6, 0}, {3, 1}}}).encode)
	response(KindRankBatch, statusOK, (&RankBatchResp{Ranks: []int64{6, 6, 3, 3}, Exact: []bool{true, false}}).encode)
	request(KindHealth, func(*enc) {})
	response(KindHealth, statusOK, func(e *enc) { e.bool(true); e.strs([]string{"warming"}) })
	response(KindPrepare, statusBadRequest, func(e *enc) { e.str("no such variable") })
	return out
}

// FuzzFrame feeds arbitrary bytes to readFrame as a byte stream. It must
// never panic and never hold more than it was given (twice the supplied
// bytes plus keepBuf bounds the buffer whatever length the header
// claims); when it accepts a frame, writing the payload back with
// writeFrame reproduces exactly the bytes it consumed.
func FuzzFrame(f *testing.F) {
	for _, payload := range roundTripFrames() {
		e := &enc{}
		e.frame()
		e.b = append(e.b, payload...)
		var wire bytes.Buffer
		if err := writeFrame(&wire, e.b); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
		f.Add(wire.Bytes()[:wire.Len()/2])
	}
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0}) // a bare header claiming maxFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := readFrame(r, nil)
		if cap(payload) > 2*len(data)+keepBuf {
			t.Fatalf("a %d-byte stream left a %d-byte buffer", len(data), cap(payload))
		}
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		e := &enc{}
		e.frame()
		e.b = append(e.b, payload...)
		var wire bytes.Buffer
		if err := writeFrame(&wire, e.b); err != nil {
			t.Fatalf("accepted payload does not frame: %v", err)
		}
		if !bytes.Equal(wire.Bytes(), consumed) {
			t.Fatalf("re-framing %d accepted bytes gives %d different ones", len(consumed), wire.Len())
		}
	})
}

// FuzzMessages feeds arbitrary bytes to the decoders FuzzBatchCodec does
// not cover: the specs, PrepareInfo, the request header and the response
// status. Each fails cleanly or round-trips; a decoded spec's key is the
// bytes it was decoded from, which is what lets a node use it as the
// spec's canonical encoding.
func FuzzMessages(f *testing.F) {
	for _, payload := range roundTripFrames() {
		f.Add(payload)
		f.Add(payload[min(len(payload), 8+1+4+25):]) // a request's body
		f.Add(payload[min(len(payload), 8+1):])      // a response's status and body
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data,
			func(d *dec) any { return decodeSpec(d) },
			func(m any, e *enc) { s := m.(Spec); s.encode(e) },
			func(t *testing.T, m any) {
				if s := m.(Spec); s.key != string(data) || s.Key() != string(data) {
					t.Fatalf("spec decoded from %q carries key %q", data, s.key)
				}
			})
		roundTrip(t, data,
			func(d *dec) any { return decodeCountSpec(d) },
			func(m any, e *enc) { c := m.(CountSpec); c.encode(e) }, nil)
		roundTrip(t, data,
			func(d *dec) any { return decodePrepareInfo(d) },
			func(m any, e *enc) { m.(*PrepareInfo).encode(e) }, nil)

		// The request header is a prefix, not a whole message: what it
		// consumed must re-encode to the same bytes.
		d := &dec{b: data}
		if h := decodeReqHeader(d); !d.bad {
			e := &enc{}
			h.encode(e)
			if !bytes.Equal(e.b, data[:d.off]) {
				t.Fatalf("request header %+v re-encodes to %x, decoded from %x", h, e.b, data[:d.off])
			}
		}

		// A status either is OK, leaving the body to the call's decoder,
		// or maps to the error its status byte names — and back.
		d = &dec{b: data}
		err := decodeStatus(d)
		switch {
		case len(data) == 0:
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("empty response decoded to %v", err)
			}
		case data[0] == statusOK:
			if err != nil || d.off != 1 {
				t.Fatalf("OK status decoded to %v at offset %d", err, d.off)
			}
		case err == nil:
			t.Fatalf("status %d decoded to no error", data[0])
		case data[0] <= statusStale && statusFor(err) != data[0]:
			t.Fatalf("status %d decoded to %v, which encodes as status %d", data[0], err, statusFor(err))
		}
	})
}
