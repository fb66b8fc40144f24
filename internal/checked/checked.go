// Package checked provides overflow-checked arithmetic on non-negative
// int64 counters.
//
// Direct-access structures multiply answer counts across join-tree
// branches (the "factor" of Algorithm 1 in the paper), so a database with
// a few million tuples and a handful of atoms can produce counts near or
// beyond 2^63. Silent wraparound would corrupt every index computation,
// so all counting arithmetic in this repository goes through this package
// and reports overflow explicitly.
package checked

import (
	"errors"
	"math"
	"math/bits"
)

// ErrOverflow is returned when a counting operation exceeds the int64 range.
var ErrOverflow = errors.New("checked: answer count overflows int64")

// Add returns a+b or ErrOverflow. Both operands must be non-negative.
func Add(a, b int64) (int64, error) {
	if a < 0 || b < 0 {
		return 0, errors.New("checked: negative operand")
	}
	s := a + b
	if s < a {
		return 0, ErrOverflow
	}
	return s, nil
}

// Mul returns a*b or ErrOverflow. Both operands must be non-negative.
func Mul(a, b int64) (int64, error) {
	if a < 0 || b < 0 {
		return 0, errors.New("checked: negative operand")
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > uint64(1<<63-1) {
		return 0, ErrOverflow
	}
	return int64(lo), nil
}

// Counter accumulates sums and products of non-negative counts and
// remembers whether any operation overflowed. It lets hot loops avoid
// per-operation error handling: check Err once at the end.
type Counter struct {
	val int64
	err error
}

// NewCounter returns a counter initialized to v.
func NewCounter(v int64) *Counter {
	c := &Counter{}
	if v < 0 {
		c.err = errors.New("checked: negative initial value")
		return c
	}
	c.val = v
	return c
}

// Add accumulates c += v.
func (c *Counter) Add(v int64) {
	if c.err != nil {
		return
	}
	c.val, c.err = Add(c.val, v)
}

// Mul accumulates c *= v.
func (c *Counter) Mul(v int64) {
	if c.err != nil {
		return
	}
	c.val, c.err = Mul(c.val, v)
}

// Value returns the accumulated value. It is meaningless if Err is non-nil.
func (c *Counter) Value() int64 { return c.val }

// Err reports the first overflow (or misuse) encountered, if any.
func (c *Counter) Err() error { return c.err }

// SatAdd returns a+b, or math.MaxUint64 when the sum does not fit.
//
// Saturating counts suit a counting DP whose intermediate counts may
// overflow where they are later multiplied by 0: zero stays exactly
// zero, and a count that saturated stays above math.MaxInt64 through
// every sum and non-zero product, so comparing the final count with
// math.MaxInt64 still detects that it overflows int64.
func SatAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return s
}

// SatMul returns a*b, or math.MaxUint64 when the product does not fit.
func SatMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}
