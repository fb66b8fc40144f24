package fd

import (
	"reflect"
	"testing"

	"rankedaccess/internal/cq"
)

// FuzzParse: Parse (what the facade's ParseFDs runs on every -fd flag
// and "fds" body field) never panics, and every FD it accepts renders to
// text that parses back to that FD.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"S: y -> z", "R: x -> y, z", "R:x->y", "T: x -> y", "R: z -> x", "R: x y -> x", "R: x -> ", "R x -> y", "R: x = y", "->:", ": -> ",
	} {
		f.Add(s)
	}
	q := cq.MustParse("Q(x, z) :- R(x, y, w), S(y, z)")
	f.Fuzz(func(t *testing.T, src string) {
		fds, err := Parse(q, src)
		if err != nil {
			return
		}
		for _, one := range fds {
			text := Set{one}.Render(q)
			again, err := Parse(q, text)
			if err != nil || !reflect.DeepEqual(again, Set{one}) {
				t.Fatalf("Parse(%q) holds %q, which parses to %+v, %v", src, text, again, err)
			}
		}
	})
}
