package main

import (
	"context"
	"fmt"
	"slices"
)

// pass runs every probe rung once, traced or not, and returns the
// results by rung name. checkFirst verifies, before timing, that every
// access rung returns the same tuples as the structure at the bottom.
// Every rung is a lone caller: the ladder prices one probe at each
// layer, not the queueing two clients cause on a two-core box.
func (f *fixtures) pass(ctx context.Context, l *ladder, checkFirst bool) (map[string]rungResult, error) {
	var dst []int64
	head := f.d.q.Head
	rows := min(int64(rangeRows), f.lex.Total()/2)
	n := len(f.ks)
	accessPath := "/v1/queries/" + queryName + "/access"
	rangePath := "/v1/queries/" + queryName + "/range"
	accessBody := make([]string, n)
	rangeBody := make([]string, n)
	for i := range f.ks {
		accessBody[i] = fmt.Sprintf(`{"ks":[%d]}`, f.ks[i])
		rangeBody[i] = fmt.Sprintf(`{"k0":%d,"k1":%d}`, f.k0s[i], f.k0s[i]+rows)
	}

	// Rungs that return the tuple of a rank, bottom to top.
	type probe struct {
		name    string
		per     int
		request bool
		at      func(buf []int64, k int64) ([]int64, error)
	}
	probes := []probe{
		{"access.lex_access", 256, false, f.lex.AppendTuple},
		{"access.overlay_access", 256, false, func(buf []int64, k int64) ([]int64, error) {
			return f.overlay.AppendTuple(buf, k%f.overlay.Total())
		}},
		{"engine.access", 256, false, func(buf []int64, k int64) ([]int64, error) {
			h, err := f.pq.Acquire()
			if err != nil {
				return nil, err
			}
			return h.AppendTuple(buf, k)
		}},
		{"shard.p1_access", 256, false, func(buf []int64, k int64) ([]int64, error) { return f.p1.AppendTuple(buf, head, k) }},
		{"shard.p4_access", 256, false, func(buf []int64, k int64) ([]int64, error) { return f.p4.AppendTuple(buf, head, k) }},
		{"client.loopback_access", 16, true, func(buf []int64, k int64) ([]int64, error) {
			return remote{f.prepared}.point(ctx, buf, k)
		}},
		{"cluster.coord_access", 4, true, func(buf []int64, k int64) ([]int64, error) {
			h, err := f.coordPQ.AcquireCtx(ctx)
			if err != nil {
				return nil, err
			}
			return h.AppendTupleCtx(ctx, buf, k)
		}},
	}
	if checkFirst {
		for _, p := range probes {
			if p.name == "access.overlay_access" {
				continue // its edits change the answers by design
			}
			for i := 0; i < 64; i++ {
				got, err := p.at(nil, f.ks[i])
				if err != nil || !slices.Equal(got, f.expect[i]) {
					return nil, fmt.Errorf("ladder: %s(%d) = %v (%v), the lex structure says %v", p.name, f.ks[i], got, err, f.expect[i])
				}
			}
		}
	}
	specs := make([]rungSpec, 0, 24)
	for _, p := range probes {
		spec := rungSpec{name: p.name, per: p.per, request: p.request, fn: func(i int) (err error) {
			dst, err = p.at(dst[:0], f.ks[i%n])
			return err
		}}
		if p.name == "cluster.coord_access" {
			// A fixed call count, so the rank rounds counted around
			// this rung repeat exactly for a given seed.
			spec.calls = 64
		}
		specs = append(specs, spec)
	}
	specs = append(specs,
		rungSpec{name: "access.lex_rank", per: 256, fn: func(i int) error {
			if _, exact := f.lex.Rank(f.answers[i%n]); !exact {
				return fmt.Errorf("rank: answer of rank %d not found", f.ks[i%n])
			}
			return nil
		}},
		rungSpec{name: "access.sum_access", per: 256, fn: func(i int) error {
			_, err := f.sum.Access(f.ks[i%n] % f.sumTotal)
			return err
		}},
		rungSpec{name: "access.lex_range", per: 8, units: int(rows), fn: func(i int) (err error) {
			dst, err = f.lex.AppendRange(dst[:0], f.k0s[i%n], f.k0s[i%n]+rows)
			return err
		}},
		rungSpec{name: "engine.range", per: 8, units: int(rows), fn: func(i int) error {
			h, err := f.pq.Acquire()
			if err != nil {
				return err
			}
			dst, err = h.AccessRange(dst[:0], f.k0s[i%n], f.k0s[i%n]+rows)
			return err
		}},
		rungSpec{name: "shard.p4_range", per: 8, units: int(rows), fn: func(i int) (err error) {
			dst, err = f.p4.AppendRange(dst[:0], head, f.k0s[i%n], f.k0s[i%n]+rows)
			return err
		}},
		rungSpec{name: "serve.handler_access", per: 32, request: true, fn: func(i int) error {
			return f.post(accessPath, accessBody[i%n])
		}},
		rungSpec{name: "serve.handler_hot_access", per: 32, request: true, fn: func(i int) error {
			return f.post(accessPath, accessBody[i%hotRanks])
		}},
		rungSpec{name: "serve.handler_range", per: 8, request: true, fn: func(i int) error {
			return f.post(rangePath, rangeBody[i%n])
		}},
		rungSpec{name: "client.loopback_range", per: 8, request: true, fn: func(i int) (err error) {
			dst, err = remote{f.prepared}.window(ctx, dst[:0], f.k0s[i%n], f.k0s[i%n]+rows)
			return err
		}},
		rungSpec{name: "rpc.rank_call", per: 16, request: true, fn: func(i int) error {
			_, _, err := f.rpcCl.Rank(ctx, f.rpcSpec, f.rpcVer, f.answers[i%n])
			return err
		}},
		rungSpec{name: "rpc.range_call", per: 8, request: true, fn: func(i int) error {
			k0 := f.k0s[i%n] % (f.rpcRows - rows)
			_, err := f.rpcCl.Range(ctx, f.rpcSpec, f.rpcVer, f.rpcSpec.Owned[0], k0, k0+rows)
			return err
		}},
		rungSpec{name: "cluster.coord_range", per: 2, request: true, fn: func(i int) error {
			h, err := f.coordPQ.AcquireCtx(ctx)
			if err != nil {
				return err
			}
			dst, err = h.AccessRangeCtx(ctx, dst[:0], f.k0s[i%n], f.k0s[i%n]+rows)
			return err
		}},
	)
	out := map[string]rungResult{}
	for _, s := range specs {
		var before float64
		if s.name == "cluster.coord_access" {
			var err error
			if before, err = f.rankCalls(); err != nil {
				return nil, err
			}
		}
		r, err := l.rung(ctx, s)
		if err != nil {
			return nil, err
		}
		out[s.name] = r
		if s.name == "cluster.coord_access" {
			after, err := f.rankCalls()
			if err != nil {
				return nil, err
			}
			out["cluster.rank_rounds"] = rungResult{perUnitNs: (after - before) / float64(f.peers) / float64(r.calls)}
		}
	}
	return out, nil
}
