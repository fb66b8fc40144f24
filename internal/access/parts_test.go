package access

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// restored round-trips a structure through its parts.
func restored(t testing.TB, la *Lex) *Lex {
	t.Helper()
	p, ok := la.Parts()
	if !ok {
		t.Fatal("an FD-free Lex exports no parts")
	}
	out, err := LexFromParts(la.Query, p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// probeShapes are the layered shapes whose probes read childOf: a chain
// (one child per layer), a star (two children under the root, so the
// stride t*len(children)+j matters), the star restored from its parts
// (childOf read back, not filled by bucketize) and an FD-extended
// structure (probes in the extended space).
func probeShapes(t *testing.T) map[string]func() *Lex {
	rng := rand.New(rand.NewSource(3))
	chainQ, in := workload.TwoPath(rng, 80, 10, 0.4)
	starQ := cq.MustParse("Q(x, y, z) :- R(x, y), S(x, z)")
	build := func(q *cq.Query, l string) func() *Lex {
		return func() *Lex {
			la, err := BuildLex(q, in, lex(t, q, l))
			if err != nil {
				t.Fatal(err)
			}
			return la
		}
	}
	fdIn := in.Clone()
	fdIn.SetRelation("R", database.NewRelation(2))
	for x := int64(0); x < 30; x++ {
		fdIn.AddRow("R", x, x%6)
	}
	return map[string]func() *Lex{
		"chain":         build(chainQ, "x, y desc, z"),
		"star":          build(starQ, "x, y desc, z"),
		"restored-star": func() *Lex { return restored(t, build(starQ, "x, z, y desc")()) },
		"fd-extended": func() *Lex {
			la, err := BuildLexFD(chainQ, fdIn, lex(t, chainQ, "x, z desc, y"), fd.MustParse(chainQ, "R: x -> y"))
			if err != nil {
				t.Fatal(err)
			}
			return la
		},
	}
}

// The probes never hash, on either side of a snapshot. A restored Lex
// is the built one, field for field: the build keeps no relation or
// bucket index, and restore re-derives nothing. And every structure
// answers Access, a consecutive-rank scan, Rank, Inverted and misses on
// every rank as an independent build does.
func TestProbesNeverHash(t *testing.T) {
	for name, build := range probeShapes(t) {
		t.Run(name, func(t *testing.T) {
			la, twin := build(), build()
			if la.Total() == 0 || la.Total() != twin.Total() {
				t.Fatalf("totals %d and %d", la.Total(), twin.Total())
			}
			if name == "chain" || name == "star" {
				state := func(la *Lex) []any {
					return []any{la.Query, la.Completed, la.total, la.numVars, la.boolean, la.boolTrue, la.layers}
				}
				if back := restored(t, la); !reflect.DeepEqual(state(back), state(la)) {
					t.Fatalf("restored %+v\nbuilt %+v", state(back), state(la))
				}
			}
			head := la.Query.Head
			scan := la.NewBuf()
			for k := int64(0); k < la.Total(); k++ {
				want, err := twin.Access(k)
				if err != nil {
					t.Fatalf("twin Access(%d): %v", k, err)
				}
				got, err := la.Access(k)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("Access(%d) = %v (%v), twin %v", k, got, err, want)
				}
				stepped, err := la.AccessInto(scan, k)
				if err != nil || !slices.Equal(stepped, want) {
					t.Fatalf("scan at %d = %v (%v), twin %v", k, stepped, err, want)
				}
				if r, ok := la.Rank(want); r != k || !ok {
					t.Fatalf("Rank(Access(%d)) = (%d, %v)", k, r, ok)
				}
				if inv, err := la.Inverted(want); err != nil || inv != k {
					t.Fatalf("Inverted(Access(%d)) = %d, %v", k, inv, err)
				}
				// A miss leaves the descent part-way: it must stop where the
				// twin's does.
				miss := slices.Clone(want)
				miss[head[int(k)%len(head)]] += values.Value(k%3 - 1)
				r, ok := la.Rank(miss)
				if wr, wok := twin.Rank(miss); r != wr || ok != wok {
					t.Fatalf("Rank(%v) = (%d, %v), twin (%d, %v)", miss, r, ok, wr, wok)
				}
			}
		})
	}
}

// A file whose checksums hold can still describe a structure that no
// build produces. LexFromParts refuses one whose probes would trip — a
// tuple selecting a child bucket that does not exist, or weighing other
// than its child buckets — at restore rather than at the first access
// reaching it, and names the layer and the tuple.
func TestLexFromPartsRefusesInconsistentParts(t *testing.T) {
	q := cq.MustParse("Q(x, y) :- R(x, y)")
	x, _ := q.VarByName("x")
	y, _ := q.VarByName("y")
	// R = {(1, 10), (2, 20)} under ⟨x, y⟩: the root holds x = 1, 2 in one
	// bucket, layer 1 one bucket per x.
	whole := func() *LexParts {
		return &LexParts{
			Completed: lex(t, q, "x, y"), Total: 2, NumVars: 2,
			Layers: []LexLayerParts{{
				Var: x, Parent: -1,
				Vals: []values.Value{1, 2}, Starts: []int64{0, 1}, ChildOf: []int32{0, 1},
				BucketStart: []int{0, 2}, BucketWeight: []int64{2},
			}, {
				Var: y, Parent: 0, KeyVars: []cq.VarID{x},
				Vals: []values.Value{10, 20}, Starts: []int64{0, 0},
				BucketStart: []int{0, 1, 2}, BucketWeight: []int64{1, 1},
			}},
		}
	}
	in := database.NewInstance()
	in.AddRow("R", 1, 10)
	in.AddRow("R", 2, 20)
	built, err := BuildLex(q, in, lex(t, q, "x, y"))
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := built.Parts(); !reflect.DeepEqual(p, whole()) {
		t.Fatalf("the hand-built parts are not what BuildLex exports:\n%+v\n%+v", whole(), p)
	}
	if _, err := LexFromParts(q, whole()); err != nil {
		t.Fatalf("the intact parts: %v", err)
	}

	for want, edit := range map[string]func(p *LexParts){
		// Drop x = 2's bucket from layer 1: tuple 1 still selects it.
		"access: layer 0: tuple 1 selects bucket 1 of child layer 1, which has 1": func(p *LexParts) {
			l := &p.Layers[1]
			l.Vals, l.Starts = l.Vals[:1], l.Starts[:1]
			l.BucketStart, l.BucketWeight = l.BucketStart[:2], l.BucketWeight[:1]
		},
		"access: layer 0: tuple 1 selects bucket 2 of child layer 1, which has 2": func(p *LexParts) {
			p.Layers[0].ChildOf[1] = 2
		},
		"access: layer 0: tuple 0 selects bucket -1 of child layer 1, which has 2": func(p *LexParts) {
			p.Layers[0].ChildOf[0] = -1
		},
		"access: layer 0: childOf holds 1 entries for 2 tuples × 1 children": func(p *LexParts) {
			p.Layers[0].ChildOf = p.Layers[0].ChildOf[:1]
		},
		"access: layer 1: childOf holds 2 entries for 2 tuples × 0 children": func(p *LexParts) {
			p.Layers[1].ChildOf = []int32{0, 0}
		},
		"access: layer 1: bucket starts run from 0 to 1, not over the 2 tuples": func(p *LexParts) {
			p.Layers[1].BucketStart[2] = 1
		},
		// Give x = 2 a second y without telling the root.
		"access: layer 0: tuple 1 weighs 1, its child buckets 2": func(p *LexParts) {
			l := &p.Layers[1]
			l.Vals, l.Starts = append(l.Vals, 21), append(l.Starts, 1)
			l.BucketStart[2], l.BucketWeight[1] = 3, 2
		},
		"access: layer 0: value 1 of tuple 1 out of order in bucket 0": func(p *LexParts) {
			l := &p.Layers[0]
			l.Vals[0], l.Vals[1] = 2, 1
		},
		"access: layer 0 does not realize completed-order entry 0": func(p *LexParts) {
			p.Completed.Entries[0].Dir = order.Desc
		},
	} {
		p := whole()
		edit(p)
		if _, err := LexFromParts(q, p); err == nil || err.Error() != want {
			t.Errorf("LexFromParts = %v, want %q", err, want)
		}
	}
}

// cloneParts deep-copies parts, so a perturbation cannot reach the
// structure they were exported from.
func cloneParts(p *LexParts) *LexParts {
	c := *p
	c.Completed.Entries = slices.Clone(p.Completed.Entries)
	c.Layers = slices.Clone(p.Layers)
	for i := range c.Layers {
		l := &c.Layers[i]
		l.KeyVars = slices.Clone(l.KeyVars)
		l.Vals, l.Starts, l.ChildOf = slices.Clone(l.Vals), slices.Clone(l.Starts), slices.Clone(l.ChildOf)
		l.BucketStart, l.BucketWeight = slices.Clone(l.BucketStart), slices.Clone(l.BucketWeight)
	}
	return &c
}

// perturb applies the edits data spells, four bytes each: what to edit,
// in which layer, at which position, by how much. Positions wrap, so
// every edit lands.
func perturb(p *LexParts, data []byte) {
	at := func(n int, pos byte) int { return int(pos) % n }
	for ; len(data) >= 4; data = data[4:] {
		op, l, pos, d := data[0], &p.Layers[int(data[1])%len(p.Layers)], data[2], int8(data[3])
		switch op % 12 {
		case 0:
			if n := len(l.Vals); n > 0 {
				l.Vals[at(n, pos)] += values.Value(d)
			}
		case 1:
			if n := len(l.Starts); n > 0 {
				l.Starts[at(n, pos)] += int64(d)
			}
		case 2:
			if n := len(l.ChildOf); n > 0 {
				l.ChildOf[at(n, pos)] += int32(d)
			}
		case 3:
			if n := len(l.BucketStart); n > 0 {
				l.BucketStart[at(n, pos)] += int(d)
			}
		case 4:
			if n := len(l.BucketWeight); n > 0 {
				l.BucketWeight[at(n, pos)] += int64(d)
			}
		case 5:
			l.Var += cq.VarID(d)
		case 6:
			l.Parent += int(d)
		case 7:
			l.Desc = !l.Desc
		case 8:
			if n := len(l.KeyVars); n > 0 {
				l.KeyVars[at(n, pos)] += cq.VarID(d)
			}
		case 9:
			p.Total += int64(d)
		case 10:
			p.Boolean = !p.Boolean
		case 11:
			// Shift a whole bucket's values: order kept, so a leaf layer
			// stays consistent and the accepting path gets exercised.
			if n := len(l.BucketStart) - 1; n > 0 {
				b := at(n, pos)
				for t := max(l.BucketStart[b], 0); t < min(l.BucketStart[b+1], len(l.Vals)); t++ {
					l.Vals[t] += values.Value(d)
				}
			}
		}
	}
}

// FuzzLexFromParts perturbs the parts of valid structures — the chain
// and the star of TestProbesNeverHash, and one root-only structure —
// their childOf and bucket starts among them. The decoder faces a file
// (a warm start maps the snapshot), so it must never panic, and a
// structure it accepts must answer: every rank below its total accesses
// without error, through a scanning buffer too, and ranks back to
// itself.
func FuzzLexFromParts(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	chainQ, in := workload.TwoPath(rng, 12, 4, 0.4)
	starQ := cq.MustParse("Q(x, y, z) :- R(x, y), S(x, z)")
	single := cq.MustParse("Q(x) :- R(x, y)")
	var bases []*LexParts
	var queries []*cq.Query
	for _, b := range []struct {
		q *cq.Query
		l string
	}{{chainQ, "x, y desc, z"}, {starQ, "x, z, y desc"}, {single, "x desc"}} {
		l, err := order.ParseLex(b.q, b.l)
		if err != nil {
			f.Fatal(err)
		}
		la, err := BuildLex(b.q, in, l)
		if err != nil {
			f.Fatal(err)
		}
		p, _ := la.Parts()
		bases, queries = append(bases, p), append(queries, b.q)
	}
	f.Add([]byte{0})
	f.Add([]byte{1, 15, 2, 0, 1})
	f.Add([]byte{0, 0, 1, 3, 1})
	f.Add([]byte{2, 6, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		which := int(data[0]) % len(bases)
		p := cloneParts(bases[which])
		perturb(p, data[1:])
		la, err := LexFromParts(queries[which], p)
		if err != nil {
			return
		}
		buf := la.NewBuf()
		for k := int64(0); k < min(la.Total(), 4096); k++ {
			a, err := la.Access(k)
			if err != nil {
				t.Fatalf("accepted parts: Access(%d) of %d: %v", k, la.Total(), err)
			}
			if s, err := la.AccessInto(buf, k); err != nil || !slices.Equal(s, a) {
				t.Fatalf("accepted parts: scan at %d = %v (%v), Access %v", k, s, err, a)
			}
			if r, ok := la.Rank(a); r != k || !ok {
				t.Fatalf("accepted parts: Rank(Access(%d)) = (%d, %v)", k, r, ok)
			}
		}
		if _, err := la.Access(la.Total()); !errors.Is(err, ErrOutOfBound) {
			t.Fatalf("accepted parts: Access(Total()) = %v", err)
		}
	})
}
