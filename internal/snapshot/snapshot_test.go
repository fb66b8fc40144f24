package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// buildSample assembles a representative snapshot: two relations, a
// dictionary, one layered-lex structure, one SUM structure, and a
// registration.
func buildSample() *Builder {
	b := NewBuilder(7, 123456789)
	b.AddRelation("R", 2, []int64{1, 10, 2, 20, 3, 30})
	b.AddRelation("S", 1, []int64{10, 20})
	b.SetDict([]string{"alpha", "beta", ""})
	sm := StructureMeta{
		Spec: SpecMeta{Query: "Q(x, y) :- R(x, y)", Order: "x"},
		Kind: KindLayeredLex, Tractable: true, Total: 3, NumVars: 2,
		Completed:  []OrderEntryMeta{{Var: 0}, {Var: 1}},
		AnswersCol: NoCol, WeightsCol: NoCol,
		Layers: []LayerMeta{
			{
				Var: 0, Parent: -1,
				ValsCol: b.I64Col([]int64{1, 2, 3}), StartsCol: b.I64Col([]int64{0, 1, 2}),
				ChildOfCol: b.I32Col([]int32{0, 1, 2}), BucketStartCol: b.IntCol([]int{0, 3}),
				BucketWeightCol: b.I64Col([]int64{3}),
			},
			{
				Var: 1, Parent: 0, KeyVars: []int{0},
				ValsCol: b.I64Col([]int64{10, 20, 30}), StartsCol: b.I64Col([]int64{0, 0, 0}),
				ChildOfCol: b.I32Col(nil), BucketStartCol: b.IntCol([]int{0, 1, 2, 3}),
				BucketWeightCol: b.I64Col([]int64{1, 1, 1}),
			},
		},
	}
	b.AddStructure(sm)
	b.AddStructure(StructureMeta{
		Spec: SpecMeta{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}},
		Kind: KindSum, Tractable: true, Total: 3, NumVars: 2, Rows: 3,
		AnswersCol: b.I64Col([]int64{1, 10, 2, 20, 3, 30}),
		WeightsCol: b.F64Col([]float64{11, 22, 33}),
	})
	b.AddRegistration("by_x", SpecMeta{Query: "Q(x, y) :- R(x, y)", Order: "x"})
	return b
}

// v1File reads testdata/v1.rka, a checkpoint written by the version 1
// engine: 128-row relations R and S, five registrations, and their
// structures — two layered-lex, one SUM, two materialized.
func v1File(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/v1.rka")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A version 1 file decodes: its instance, registrations and row-array
// structures intact, its layered-lex structures dropped (their columns
// are a bucket index this version does not read), and its bytes
// re-encoded as they are.
func TestDecodeAcceptsV1(t *testing.T) {
	data := v1File(t)
	f, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != 1 || len(f.Meta.Relations) != 2 || len(f.Meta.Registrations) != 5 {
		t.Fatalf("version %d, %d relations, %d registrations", f.Version, len(f.Meta.Relations), len(f.Meta.Registrations))
	}
	var kinds []string
	for _, sm := range f.Meta.Structures {
		kinds = append(kinds, sm.Kind)
	}
	if want := []string{KindSum, KindMaterialized, KindMaterialized}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("structures %v, want %v", kinds, want)
	}
	if out, err := f.Encode(); err != nil || !bytes.Equal(out, data) {
		t.Fatalf("re-encode of the v1 file differs (%v)", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data, err := buildSample().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != FormatVersion || f.Meta.EngineVersion != 7 || f.Meta.CreatedUnixNano != 123456789 {
		t.Fatalf("meta header %+v", f.Meta)
	}
	if f.Meta.Tuples != 5 || len(f.Meta.Relations) != 2 {
		t.Fatalf("instance meta %+v", f.Meta)
	}
	if got := f.DictNames(); !reflect.DeepEqual(got, []string{"alpha", "beta", ""}) {
		t.Fatalf("dict names %q", got)
	}
	col, err := f.ColI64(f.Meta.Relations[0].Col)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col, []int64{1, 10, 2, 20, 3, 30}) {
		t.Fatalf("relation column %v", col)
	}
	ws, err := f.ColF64(f.Meta.Structures[1].WeightsCol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, []float64{11, 22, 33}) {
		t.Fatalf("weights %v", ws)
	}

	// Re-encoding a decoded file is byte-identical.
	out, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("re-encode is not byte-identical")
	}

	// Encoding is deterministic across builder runs.
	again, err := buildSample().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("two identical builds differ")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := buildSample().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(d []byte) []byte { return nil }, ErrCorrupt},
		{"bad magic", func(d []byte) []byte { d[0] ^= 1; return d }, ErrBadMagic},
		{"future version", func(d []byte) []byte { d[8] = 99; return d }, ErrBadVersion},
		{"foreign order", func(d []byte) []byte { d[12] ^= flagLittleEndian; return d }, ErrForeignByteOrder},
		{"flipped payload byte", func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d }, ErrCorrupt},
		{"flipped crc", func(d []byte) []byte { d[fileHeaderLen+4] ^= 1; return d }, ErrCorrupt},
		{"truncated", func(d []byte) []byte { return d[:len(d)-9] }, ErrCorrupt},
		{"trailing garbage", func(d []byte) []byte { return append(d, 0) }, ErrCorrupt},
		{"section count", func(d []byte) []byte { d[16]++; return d }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), data...))
			f, err := Decode(mut)
			if err == nil {
				t.Fatalf("decode accepted %s (meta %+v)", tc.name, f.Meta)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsMetaInconsistencies(t *testing.T) {
	mutate := func(f func(*Builder)) error {
		b := buildSample()
		f(b)
		data, err := b.Bytes()
		if err != nil {
			return err
		}
		_, err = Decode(data)
		return err
	}
	cases := []struct {
		name string
		mut  func(*Builder)
	}{
		{"bad relation col", func(b *Builder) { b.meta.Relations[0].Col = 999 }},
		{"relation length lie", func(b *Builder) { b.meta.Relations[0].Rows = 17 }},
		{"tuple count lie", func(b *Builder) { b.meta.Tuples = 99 }},
		{"duplicate relation", func(b *Builder) { b.meta.Relations[1].Name = "R" }},
		{"dict count lie", func(b *Builder) { b.meta.Dict.Count = 50 }},
		{"wrong column kind", func(b *Builder) { b.meta.Structures[1].WeightsCol = b.meta.Structures[1].AnswersCol }},
		{"unknown structure kind", func(b *Builder) { b.meta.Structures[0].Kind = "btree" }},
		{"layer var out of range", func(b *Builder) { b.meta.Structures[0].Layers[0].Var = 63 }},
		{"layer parent cycle", func(b *Builder) { b.meta.Structures[0].Layers[1].Parent = 1 }},
		{"child buckets length lie", func(b *Builder) {
			b.meta.Structures[0].Layers[1].ChildOfCol = b.meta.Structures[0].Layers[0].ChildOfCol
		}},
		{"bucket starts without sentinel", func(b *Builder) {
			b.meta.Structures[0].Layers[0].BucketStartCol = b.meta.Structures[0].Layers[0].BucketWeightCol
		}},
		{"empty registration name", func(b *Builder) { b.meta.Registrations[0].Name = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := mutate(tc.mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestWriteFileAtomicAndListable(t *testing.T) {
	dir := t.TempDir()
	name, size, err := WriteFile(dir, buildSample())
	if err != nil {
		t.Fatal(err)
	}
	if !ValidName(name) {
		t.Fatalf("invalid snapshot name %q", name)
	}
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil || st.Size() != size {
		t.Fatalf("stat %v, size %d vs %d", err, st.Size(), size)
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in dir, want 1", len(entries))
	}
	m, err := Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.File().Meta.EngineVersion != 7 {
		t.Fatalf("mapped meta %+v", m.File().Meta)
	}
	// CleanTmp removes stranded temp files and nothing else.
	tmp := filepath.Join(dir, tmpPrefix+"stranded")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	CleanTmp(dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stranded temp file survived CleanTmp")
	}
	if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
		t.Fatal("CleanTmp removed a real snapshot")
	}
}

func TestValidName(t *testing.T) {
	good := FileName(12, 34)
	if !ValidName(good) {
		t.Fatalf("%q should be valid", good)
	}
	for _, bad := range []string{
		"", "snapshot.rka", "x/" + good, "../" + good,
		"snapshot--1-v2.rka", "snapshot-00000000000000000034-v.rka",
	} {
		if ValidName(bad) {
			t.Fatalf("%q should be invalid", bad)
		}
	}
}
