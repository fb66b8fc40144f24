// Package tupleidx provides allocation-free indexing, and radix sorting,
// of fixed-arity tuples of dictionary-encoded values stored flat in one
// []values.Value backing array.
//
// The Index replaces the map[string]-of-encoded-tuples idiom used by the
// first versions of dedup, semijoin, bucket lookup, and group-by: those
// pay one string allocation (plus an 8-bytes-per-column encode) per
// probed tuple, which dominates both the O(n log n) preprocessing and
// the O(log n) access paths of the paper's structures. The Index stores
// keys at a fixed stride in a single flat array and resolves probes by
// open addressing with wyhash-style multiply-xor mixing over the int64
// columns, so steady-state Insert/Lookup perform no allocation at all.
//
// Keys are assigned dense ids in insertion order (0, 1, 2, ...), which
// callers use to address parallel arrays (bucket offsets, weight tables,
// sorted tuple lists).
package tupleidx

import (
	"math"
	"math/bits"

	"rankedaccess/internal/values"
)

// Index maps fixed-arity tuples to dense insertion-order ids.
// The zero value is not usable; use New. Not safe for concurrent
// mutation; concurrent Lookups of a finished index are safe.
type Index struct {
	arity int
	keys  []values.Value // flat key storage, stride = arity
	table []int32        // open-addressing slots: id+1, 0 = empty
	mask  uint64
	n     int
}

// Mixing constants (wyhash v3 secrets).
const (
	m1 = 0xa0761d6478bd642f
	m2 = 0xe7037ed1a0b428db
	m3 = 0x8ebc6af09c88c6e3
)

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Hash returns the mixed hash of a key. Exposed so callers can pre-probe
// or shard by hash.
func Hash(key []values.Value) uint64 {
	h := uint64(len(key))*m3 ^ m2
	for _, v := range key {
		h = mix(uint64(v)^m1, h^m2)
	}
	return mix(h, m3)
}

// hashCols hashes the projection of tuple t onto cols, producing the
// same value as Hash of the gathered key.
func hashCols(t []values.Value, cols []int) uint64 {
	h := uint64(len(cols))*m3 ^ m2
	for _, c := range cols {
		h = mix(uint64(t[c])^m1, h^m2)
	}
	return mix(h, m3)
}

// New returns an empty index for keys of the given arity, pre-sized for
// about capHint keys.
func New(arity, capHint int) *Index {
	if arity < 0 {
		panic("tupleidx: negative arity")
	}
	size := 8
	for size < capHint*2 {
		size <<= 1
	}
	return &Index{
		arity: arity,
		table: make([]int32, size),
		mask:  uint64(size - 1),
		keys:  make([]values.Value, 0, capHint*arity),
	}
}

// Len returns the number of distinct keys inserted.
func (x *Index) Len() int { return x.n }

// Bytes returns the heap bytes the index holds: its key storage and its
// slot table.
func (x *Index) Bytes() int { return cap(x.keys)*8 + len(x.table)*4 }

// Key returns a read-only view of the key with the given id (do not
// mutate; valid until the index is garbage).
func (x *Index) Key(id int) []values.Value {
	return x.keys[id*x.arity : (id+1)*x.arity : (id+1)*x.arity]
}

// FlatKeys returns the flat backing array of all inserted keys in id
// order (stride the key arity). The caller may keep the slice; it must not
// mutate it while the index is still probed.
func (x *Index) FlatKeys() []values.Value { return x.keys }

func (x *Index) eq(id int, key []values.Value) bool {
	off := id * x.arity
	for j, v := range key {
		if x.keys[off+j] != v {
			return false
		}
	}
	return true
}

func (x *Index) eqCols(id int, t []values.Value, cols []int) bool {
	off := id * x.arity
	for j, c := range cols {
		if x.keys[off+j] != t[c] {
			return false
		}
	}
	return true
}

// grow doubles the table and rehashes from the flat key storage.
func (x *Index) grow() {
	size := len(x.table) * 2
	x.table = make([]int32, size)
	x.mask = uint64(size - 1)
	for id := 0; id < x.n; id++ {
		h := Hash(x.Key(id))
		slot := h & x.mask
		for x.table[slot] != 0 {
			slot = (slot + 1) & x.mask
		}
		x.table[slot] = int32(id) + 1
	}
}

func (x *Index) maybeGrow() {
	// Keep load factor below 3/4.
	if (x.n+1)*4 >= len(x.table)*3 {
		x.grow()
	}
}

// Insert returns the id of key, adding it (copying the values into the
// flat storage) if absent. added reports whether the key was new.
// Steady-state inserts of present keys perform no allocation.
func (x *Index) Insert(key []values.Value) (id int, added bool) {
	if len(key) != x.arity {
		panic("tupleidx: insert key arity mismatch")
	}
	x.maybeGrow()
	slot := Hash(key) & x.mask
	for {
		e := x.table[slot]
		if e == 0 {
			return x.add(slot, key), true
		}
		if x.eq(int(e-1), key) {
			return int(e - 1), false
		}
		slot = (slot + 1) & x.mask
	}
}

// InsertCols is Insert keyed on the projection of tuple t onto cols,
// without gathering the key into a temporary.
func (x *Index) InsertCols(t []values.Value, cols []int) (id int, added bool) {
	if len(cols) != x.arity {
		panic("tupleidx: insert cols arity mismatch")
	}
	x.maybeGrow()
	slot := hashCols(t, cols) & x.mask
	for {
		e := x.table[slot]
		if e == 0 {
			id = x.n
			if id == math.MaxInt32 {
				panic("tupleidx: key count overflows int32")
			}
			x.table[slot] = int32(id) + 1
			for _, c := range cols {
				x.keys = append(x.keys, t[c])
			}
			x.n++
			return id, true
		}
		if x.eqCols(int(e-1), t, cols) {
			return int(e - 1), false
		}
		slot = (slot + 1) & x.mask
	}
}

func (x *Index) add(slot uint64, key []values.Value) int {
	id := x.n
	if id == math.MaxInt32 {
		panic("tupleidx: key count overflows int32")
	}
	x.table[slot] = int32(id) + 1
	x.keys = append(x.keys, key...)
	x.n++
	return id
}

// Lookup returns the id of key and whether it is present. Performs no
// allocation.
func (x *Index) Lookup(key []values.Value) (id int, ok bool) {
	if len(key) != x.arity {
		panic("tupleidx: lookup key arity mismatch")
	}
	slot := Hash(key) & x.mask
	for {
		e := x.table[slot]
		if e == 0 {
			return 0, false
		}
		if x.eq(int(e-1), key) {
			return int(e - 1), true
		}
		slot = (slot + 1) & x.mask
	}
}

// LookupCols is Lookup keyed on the projection of tuple t onto cols,
// without gathering the key into a temporary.
func (x *Index) LookupCols(t []values.Value, cols []int) (id int, ok bool) {
	if len(cols) != x.arity {
		panic("tupleidx: lookup cols arity mismatch")
	}
	slot := hashCols(t, cols) & x.mask
	for {
		e := x.table[slot]
		if e == 0 {
			return 0, false
		}
		if x.eqCols(int(e-1), t, cols) {
			return int(e - 1), true
		}
		slot = (slot + 1) & x.mask
	}
}
