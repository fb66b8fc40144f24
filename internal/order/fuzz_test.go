package order

import (
	"reflect"
	"testing"

	"rankedaccess/internal/cq"
)

// FuzzParseLex: ParseLex never panics, and an order it accepts renders
// to text that parses back to the same order.
func FuzzParseLex(f *testing.F) {
	for _, s := range []string{"", "x, z desc, y asc", "x, z", "y desc", "w", "x, x", "x down", "x y z", "x,,z", " X DESC "} {
		f.Add(s)
	}
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	f.Fuzz(func(t *testing.T, src string) {
		l, err := ParseLex(q, src)
		if err != nil {
			return
		}
		again, err := ParseLex(q, l.Render(q))
		if err != nil || !reflect.DeepEqual(l, again) {
			t.Fatalf("ParseLex(%q) = %q, which parses to %+v, %v", src, l.Render(q), again, err)
		}
	})
}
