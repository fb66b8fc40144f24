package checked

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddBasic(t *testing.T) {
	got, err := Add(2, 3)
	if err != nil || got != 5 {
		t.Fatalf("Add(2,3) = %d, %v", got, err)
	}
}

func TestAddOverflow(t *testing.T) {
	if _, err := Add(math.MaxInt64, 1); err != ErrOverflow {
		t.Fatalf("expected overflow, got %v", err)
	}
	if got, err := Add(math.MaxInt64, 0); err != nil || got != math.MaxInt64 {
		t.Fatalf("MaxInt64+0 should be fine: %d, %v", got, err)
	}
}

func TestAddNegative(t *testing.T) {
	if _, err := Add(-1, 2); err == nil {
		t.Fatal("expected error for negative operand")
	}
	if _, err := Add(2, -1); err == nil {
		t.Fatal("expected error for negative operand")
	}
}

func TestMulBasic(t *testing.T) {
	got, err := Mul(6, 7)
	if err != nil || got != 42 {
		t.Fatalf("Mul(6,7) = %d, %v", got, err)
	}
}

func TestMulZero(t *testing.T) {
	got, err := Mul(0, math.MaxInt64)
	if err != nil || got != 0 {
		t.Fatalf("Mul(0,max) = %d, %v", got, err)
	}
}

func TestMulOverflow(t *testing.T) {
	if _, err := Mul(math.MaxInt64, 2); err != ErrOverflow {
		t.Fatalf("expected overflow, got %v", err)
	}
	if _, err := Mul(1<<32, 1<<32); err != ErrOverflow {
		t.Fatalf("expected overflow for 2^64, got %v", err)
	}
	if got, err := Mul(1<<31, 1<<31); err != nil || got != 1<<62 {
		t.Fatalf("2^62 should fit: %d, %v", got, err)
	}
}

func TestMulNegative(t *testing.T) {
	if _, err := Mul(-3, 4); err == nil {
		t.Fatal("expected error for negative operand")
	}
}

func TestMulMatchesBigIntSemantics(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a)>>1, int64(b)>>1 // products of 31-bit values fit in int64
		got, err := Mul(x, y)
		return err == nil && got == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterHappyPath(t *testing.T) {
	c := NewCounter(1)
	c.Mul(10)
	c.Add(5)
	c.Mul(2)
	if c.Err() != nil || c.Value() != 30 {
		t.Fatalf("counter = %d, %v", c.Value(), c.Err())
	}
}

func TestCounterOverflowSticks(t *testing.T) {
	c := NewCounter(math.MaxInt64)
	c.Add(1)
	if c.Err() != ErrOverflow {
		t.Fatalf("expected overflow, got %v", c.Err())
	}
	c.Add(0) // must not clear the error
	if c.Err() != ErrOverflow {
		t.Fatal("overflow error must be sticky")
	}
}

func TestCounterNegativeInit(t *testing.T) {
	c := NewCounter(-1)
	if c.Err() == nil {
		t.Fatal("expected error for negative initial value")
	}
}

func TestSaturating(t *testing.T) {
	const max = math.MaxUint64
	cases := []struct{ a, b, sum, prod uint64 }{
		{0, 0, 0, 0},
		{2, 3, 5, 6},
		{0, max, max, 0},
		{max, 1, max, max},
		{1 << 32, 1 << 32, 1 << 33, max},
		{math.MaxInt64, math.MaxInt64, max - 1, max},
		{max - 1, 1, max, max - 1},
	}
	for _, c := range cases {
		if got := SatAdd(c.a, c.b); got != c.sum {
			t.Errorf("SatAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.sum)
		}
		if got := SatMul(c.a, c.b); got != c.prod {
			t.Errorf("SatMul(%d, %d) = %d, want %d", c.a, c.b, got, c.prod)
		}
	}
}
