package rpc

import (
	"reflect"
	"testing"

	"rankedaccess/internal/order"
)

// FuzzBatchCodec feeds arbitrary bytes to the four decoders of the
// batch kinds (AccessBatch request, its answers-block response,
// RankBatch request and response). Each must either fail cleanly or
// decode to a message that re-encodes and decodes back to itself; none
// may panic, and none may hold more than the pivot cap allows however
// large a count the bytes claim.
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
	seed(func(e *enc) { e.answers([]order.Answer{{1, 2, 3}, {4, 5, 6}}) })
	seed(func(e *enc) { e.u32(1 << 30); e.u32(1 << 30) })
	f.Add([]byte{})

	// roundTrip decodes data, and if that succeeds checks that the
	// message survives encode → decode unchanged.
	roundTrip := func(t *testing.T, data []byte, decode func(*dec) any, encode func(any, *enc), size func(any) int) {
		d := &dec{b: data}
		msg := decode(d)
		if d.err() != nil {
			return
		}
		if n := size(msg); n > MaxPivots {
			t.Fatalf("decoded %d entries, cap %d", n, MaxPivots)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data,
			func(d *dec) any { return decodeAccessBatchReq(d) },
			func(m any, e *enc) { r := m.(AccessBatchReq); r.encode(e) },
			func(m any) int { return len(m.(AccessBatchReq).Pos) })
		roundTrip(t, data,
			func(d *dec) any { return decodeRankBatchReq(d) },
			func(m any, e *enc) { r := m.(RankBatchReq); r.encode(e) },
			func(m any) int { return len(m.(RankBatchReq).Answers) })
		roundTrip(t, data,
			func(d *dec) any { return decodeRankBatchResp(d) },
			func(m any, e *enc) { r := m.(RankBatchResp); r.encode(e) },
			func(m any) int { return len(m.(RankBatchResp).Exact) })
		roundTrip(t, data,
			func(d *dec) any { return d.answers(MaxPivots) },
			func(m any, e *enc) { e.answers(m.([]order.Answer)) },
			func(m any) int { return len(m.([]order.Answer)) })
	})
}
