package snapshot

import (
	"bytes"
	"testing"
)

// FuzzSnapshotRoundTrip throws arbitrary bytes at the strict decoder.
// The invariants:
//
//  1. Decode never panics — truncated files, flipped bytes, wrong
//     versions, and hostile metas all fail with an error.
//  2. Any input Decode accepts re-encodes byte-identically (the
//     encoding is canonical and decoding strict, so accept ⇒ exact
//     round trip), and decoding the re-encoding accepts again. A
//     version 1 file (seeded from testdata/v1.rka, which covers its
//     read path) re-encodes as version 1: the sections are kept
//     verbatim, the dropped layered structures' columns included.
func FuzzSnapshotRoundTrip(f *testing.F) {
	seed, err := buildSample().Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, err := NewBuilder(0, 0).Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	// A few deterministic mutants of the valid seed steer the fuzzer at
	// interesting offsets (header, section headers, meta JSON).
	for _, off := range []int{0, 9, 13, 17, fileHeaderLen, fileHeaderLen + 5, len(seed) - 10} {
		mut := append([]byte(nil), seed...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	f.Add(v1File(f))
	f.Add(seed[:fileHeaderLen])
	f.Add([]byte("RKASNAP1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		out, err := dec.Encode()
		if err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted input did not round-trip byte-identically (%d vs %d bytes)", len(out), len(data))
		}
		if _, err := Decode(out); err != nil {
			t.Fatalf("re-encoded output no longer decodes: %v", err)
		}
	})
}
