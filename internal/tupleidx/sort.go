package tupleidx

import (
	"rankedaccess/internal/values"
)

// SortRows sorts the rows of a flat fixed-stride array in place by
// column 0 ascending, then column 1, and so on, the last column
// descending when desc is set. It is an LSD radix sort: one stable
// counting pass per 8-bit digit, columns from the last to the first and
// digits from the lowest to the highest within a column, each pass
// moving whole rows between data and one scratch array of the same
// length. Keys are sign-corrected (int64 order) and, for a descending
// last column, complemented. A digit that every row of the column
// shares orders nothing and is skipped, so dictionary-encoded values
// below 2^16 cost two passes per column. Rows already in order (a
// relation Dedup returned, read in its own column order) cost one
// comparison pass and move nothing. No comparator is called.
func SortRows(data []values.Value, arity int, desc bool) {
	if arity <= 0 || len(data) <= arity || inOrder(data, arity, desc) {
		return
	}
	src, dst := data, make([]values.Value, len(data))
	var counts [8][256]int
	for c := arity - 1; c >= 0; c-- {
		flip := uint64(1) << 63 // int64 order as unsigned order
		if desc && c == arity-1 {
			flip = ^flip
		}
		// The digits some two rows disagree on, then their histograms.
		var diff uint64
		first := uint64(src[c])
		for r := c; r < len(src); r += arity {
			diff |= uint64(src[r]) ^ first
		}
		var shifts [8]uint
		digits := 0
		for shift := uint(0); shift < 64; shift += 8 {
			if byte(diff>>shift) != 0 {
				shifts[digits] = shift
				counts[digits] = [256]int{}
				digits++
			}
		}
		for r := c; r < len(src); r += arity {
			k := uint64(src[r]) ^ flip
			for d, shift := range shifts[:digits] {
				counts[d][byte(k>>shift)]++
			}
		}
		for d, shift := range shifts[:digits] {
			cnt := &counts[d]
			sum := 0
			for i, k := range cnt {
				cnt[i] = sum
				sum += k
			}
			for r := 0; r < len(src); r += arity {
				row := src[r : r+arity : r+arity]
				b := byte((uint64(row[c]) ^ flip) >> shift)
				to := dst[cnt[b]*arity:][:arity:arity]
				cnt[b]++
				for j, v := range row {
					to[j] = v
				}
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// inOrder reports whether the rows of data already stand in SortRows'
// order, stopping at the first pair that does not.
func inOrder(data []values.Value, arity int, desc bool) bool {
	for r := arity; r < len(data); r += arity {
		prev, row := data[r-arity:r:r], data[r:r+arity:r+arity]
		for c, v := range row {
			if p := prev[c]; p != v {
				if (p < v) == (desc && c == arity-1) {
					return false
				}
				break
			}
		}
	}
	return true
}

// SortLexFlat sorts the rows of a flat fixed-stride array in place by
// columnwise ascending value order.
func SortLexFlat(data []values.Value, arity int) { SortRows(data, arity, false) }
