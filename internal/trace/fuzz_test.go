package trace

import "testing"

// FuzzParseTraceparent: the parser of a header any client may send never
// panics, accepts only valid contexts, and what it accepts renders to a
// header that parses back to the same context.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"",
		"00-abc",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x",
		"00-4bf92f3577b34da6a3ce929d0e0e4736+00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, hdr string) {
		sc, ok := ParseTraceparent(hdr)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted the invalid %+v", hdr, sc)
		}
		if again, ok := ParseTraceparent(sc.Traceparent()); !ok || again != sc {
			t.Fatalf("ParseTraceparent(%q) = %q, which parses to %+v, %v", hdr, sc.Traceparent(), again, ok)
		}
	})
}
