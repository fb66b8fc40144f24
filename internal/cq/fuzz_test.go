package cq

import (
	"reflect"
	"testing"
)

// FuzzParse: Parse never panics, and a query it accepts renders to text
// that parses back to the same query.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"Q(x, y, z) :- R(x, y), S(y, z)",
		"Q(x, z) :- R(x, y), S(y, z).",
		"Q() :- R(x, y), S(y, x)",
		"Q(x) :- R(x, x)",
		"Visits_Cases(person, age, city, date, #cases) :- Visits(person, age, city), Cases(city, date, #cases)",
		"Q(x) : R(x)", "Q(x) :- ", "Q(x) :- R(x,)", "Q(x) :- R(x) extra", "Q(x) :- R(y)", "Q(x, x) :- R(x)", "Q(1x) :- R(1x)", "Q(x) :- R(x), (y)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		again, err := Parse(q.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", src, q.String(), err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("Parse(%q) = %q, which parses to the different %q", src, q.String(), again.String())
		}
	})
}
