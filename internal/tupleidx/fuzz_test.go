package tupleidx

import (
	"encoding/binary"
	"sort"
	"testing"

	"rankedaccess/internal/values"
)

// refMap is the old string-key idiom the Index replaces: fixed-width
// big-endian encoding of every column, interned in a Go map. The fuzz
// target checks that Index agrees with it on insert ids, membership,
// and dedup counts for arbitrary data, including negative values and
// mixed arities.
type refMap struct {
	ids map[string]int
	buf []byte
}

func newRefMap() *refMap { return &refMap{ids: make(map[string]int)} }

func (m *refMap) key(t []values.Value) string {
	m.buf = m.buf[:0]
	for _, v := range t {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		m.buf = append(m.buf, b[:]...)
	}
	return string(m.buf)
}

func (m *refMap) insert(t []values.Value) (int, bool) {
	k := m.key(t)
	if id, ok := m.ids[k]; ok {
		return id, false
	}
	id := len(m.ids)
	m.ids[k] = id
	return id, true
}

func (m *refMap) lookup(t []values.Value) (int, bool) {
	id, ok := m.ids[m.key(t)]
	return id, ok
}

func FuzzIndexVsStringMap(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(2), []byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(3), make([]byte, 8*9))
	f.Add(uint8(4), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, arity8 uint8, data []byte) {
		arity := int(arity8%4) + 1 // mixed arities 1..4
		width := 8 * arity
		n := len(data) / width
		if n == 0 {
			return
		}
		tuples := make([][]values.Value, n)
		for i := 0; i < n; i++ {
			tu := make([]values.Value, arity)
			for j := 0; j < arity; j++ {
				tu[j] = values.Value(binary.BigEndian.Uint64(data[i*width+j*8:])) // signed reinterpret: negatives included
			}
			tuples[i] = tu
		}

		x := New(arity, 0)
		ref := newRefMap()
		for _, tu := range tuples {
			gotID, gotAdded := x.Insert(tu)
			wantID, wantAdded := ref.insert(tu)
			if gotID != wantID || gotAdded != wantAdded {
				t.Fatalf("Insert(%v): index (%d, %v), string map (%d, %v)",
					tu, gotID, gotAdded, wantID, wantAdded)
			}
		}
		// Dedup semantics: same number of distinct keys.
		if x.Len() != len(ref.ids) {
			t.Fatalf("dedup count: index %d, string map %d", x.Len(), len(ref.ids))
		}
		// Lookup of every inserted tuple and of mutated (likely absent)
		// probes must agree.
		for _, tu := range tuples {
			gotID, gotOK := x.Lookup(tu)
			wantID, wantOK := ref.lookup(tu)
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("Lookup(%v): index (%d, %v), string map (%d, %v)",
					tu, gotID, gotOK, wantID, wantOK)
			}
			probe := append([]values.Value(nil), tu...)
			probe[0] = ^probe[0]
			gotID, gotOK = x.Lookup(probe)
			wantID, wantOK = ref.lookup(probe)
			if gotOK != wantOK || (gotOK && gotID != wantID) {
				t.Fatalf("Lookup(flipped %v): index (%d, %v), string map (%d, %v)",
					probe, gotID, gotOK, wantID, wantOK)
			}
		}
		// Stored keys must round-trip exactly.
		for _, tu := range tuples {
			id, _ := x.Lookup(tu)
			k := x.Key(id)
			for j := range tu {
				if k[j] != tu[j] {
					t.Fatalf("Key(%d) = %v, want %v", id, k, tu)
				}
			}
		}
	})
}

// FuzzSortRows holds SortRows to sort.Slice over row views: arities 1–4,
// any int64 (the seeds reach math.MinInt64 and math.MaxInt64, whose
// top digits differ only by the sign correction), the last column
// ascending or descending.
func FuzzSortRows(f *testing.F) {
	word := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.BigEndian.AppendUint64(out, v)
		}
		return out
	}
	const minInt, maxInt, minusOne = 1 << 63, 1<<63 - 1, 1<<64 - 1
	f.Add(uint8(0), false, word(3, 1, 2, 1))
	f.Add(uint8(0), true, word(minInt, maxInt, 0, minusOne, 1, minInt))
	f.Add(uint8(1), false, word(1, minInt, 1, maxInt, 0, 5, minusOne, 5, 1, minInt))
	f.Add(uint8(1), true, word(1, minInt, 1, maxInt, 0, 5, minusOne, 5, 1, 0))
	f.Add(uint8(2), true, word(7, 7, 7, 7, 7, 7, 7, 7, 6, minusOne, 256, 1<<40))
	f.Add(uint8(3), false, word(minInt, maxInt, 0, 1, minInt, maxInt, 0, 0, maxInt, minInt, 2, 2))
	f.Fuzz(func(t *testing.T, arity8 uint8, desc bool, data []byte) {
		arity := int(arity8%4) + 1
		n := len(data) / (8 * arity)
		flat := make([]values.Value, n*arity)
		for i := range flat {
			flat[i] = values.Value(binary.BigEndian.Uint64(data[8*i:]))
		}
		rows := make([][]values.Value, n)
		for i := range rows {
			rows[i] = append([]values.Value(nil), flat[i*arity:(i+1)*arity]...)
		}
		sort.Slice(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			for c := 0; c < arity-1; c++ {
				if a[c] != b[c] {
					return a[c] < b[c]
				}
			}
			if desc {
				return a[arity-1] > b[arity-1]
			}
			return a[arity-1] < b[arity-1]
		})
		SortRows(flat, arity, desc)
		for i, row := range rows {
			for c, v := range row {
				if got := flat[i*arity+c]; got != v {
					t.Fatalf("arity %d desc %v: row %d column %d is %d, want %d", arity, desc, i, c, got, v)
				}
			}
		}
	})
}
