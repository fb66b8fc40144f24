package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Sentinel decode errors; every decode failure wraps one of them.
var (
	// ErrBadMagic: the file does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrBadVersion: the format version is not one this build reads.
	ErrBadVersion = errors.New("snapshot: unsupported format version")
	// ErrForeignByteOrder: the columns were written on a host of the
	// other endianness.
	ErrForeignByteOrder = errors.New("snapshot: foreign byte order")
	// ErrCorrupt: a structural or checksum violation.
	ErrCorrupt = errors.New("snapshot: corrupt file")
)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// File is a decoded snapshot. Column accessors return views into the
// decoded byte slice (the mapped file), so a File must not outlive the
// mapping that backs it.
type File struct {
	// Version is the file's format version: FormatVersion, or 1.
	Version uint32
	// Meta is the parsed table of contents; Decode has already verified
	// every column reference in it (existence, kind, and length).
	Meta Meta

	flags     uint32
	sections  []section
	dictNames []string
}

// Decode parses and fully validates a snapshot image: magic, version,
// byte order, every section CRC, zero padding, no trailing bytes, and
// the meta document's internal consistency. The returned File aliases
// data; it never panics on hostile input — any violation is an error.
func Decode(data []byte) (*File, error) {
	if len(data) < fileHeaderLen {
		return nil, corrupt("%d bytes is shorter than the header", len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, ErrBadMagic
	}
	f := &File{Version: binary.LittleEndian.Uint32(data[8:12]), flags: binary.LittleEndian.Uint32(data[12:16])}
	if f.Version != 1 && f.Version != FormatVersion {
		return nil, fmt.Errorf("%w: %d (this build reads 1 and %d)", ErrBadVersion, f.Version, FormatVersion)
	}
	if (f.flags&flagLittleEndian != 0) != hostLittle() {
		return nil, ErrForeignByteOrder
	}
	// Every section costs at least a header, which bounds a plausible
	// count by the remaining bytes — a corrupt huge count fails here
	// instead of sizing an absurd allocation.
	count := binary.LittleEndian.Uint64(data[16:24])
	if count == 0 || count > uint64((len(data)-fileHeaderLen)/secHeaderLen) {
		return nil, corrupt("section count %d out of range", count)
	}
	f.sections = make([]section, 0, count)
	off := fileHeaderLen
	for i := uint64(0); i < count; i++ {
		if len(data)-off < secHeaderLen {
			return nil, corrupt("truncated header of section %d", i)
		}
		kind := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		plen := binary.LittleEndian.Uint64(data[off+8 : off+16])
		off += secHeaderLen
		if plen > uint64(len(data)-off) {
			return nil, corrupt("truncated payload of section %d", i)
		}
		payload := data[off : off+int(plen)]
		off += int(plen)
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return nil, corrupt("section %d checksum mismatch", i)
		}
		switch kind {
		case kindI64, kindF64:
			if plen%8 != 0 {
				return nil, corrupt("section %d: %d bytes is not 8-element-aligned", i, plen)
			}
		case kindI32:
			if plen%4 != 0 {
				return nil, corrupt("section %d: %d bytes is not 4-element-aligned", i, plen)
			}
		case kindBytes:
		case kindMeta:
			if i != count-1 {
				return nil, corrupt("meta section %d is not last", i)
			}
		default:
			return nil, corrupt("section %d has unknown kind %d", i, kind)
		}
		for pad := (8 - int(plen)%8) % 8; pad > 0; pad-- {
			if off >= len(data) {
				return nil, corrupt("truncated padding of section %d", i)
			}
			if data[off] != 0 {
				return nil, corrupt("non-zero padding after section %d", i)
			}
			off++
		}
		f.sections = append(f.sections, section{kind: kind, payload: payload})
	}
	if off != len(data) {
		return nil, corrupt("%d trailing bytes", len(data)-off)
	}
	last := f.sections[len(f.sections)-1]
	if last.kind != kindMeta {
		return nil, corrupt("last section is not meta")
	}
	if err := json.Unmarshal(last.payload, &f.Meta); err != nil {
		return nil, corrupt("meta: %v", err)
	}
	if f.Version == 1 {
		// The one version branch: see "Versioning" in the package doc.
		f.Meta.Structures = slices.DeleteFunc(f.Meta.Structures, func(sm StructureMeta) bool {
			return sm.Kind == KindLayeredLex
		})
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode re-emits the decoded file. For any successfully decoded input
// this reproduces the original bytes exactly (decoding is strict and
// the encoding canonical).
func (f *File) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := writeSections(&buf, f.Version, f.flags, f.sections); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// col resolves a column reference, checking index, kind, and (when
// wantLen >= 0) element count.
func (f *File) col(idx int, kind uint32, wantLen int, what string) ([]byte, error) {
	if idx < 0 || idx >= len(f.sections) || f.sections[idx].kind != kind {
		return nil, corrupt("%s: bad column reference %d", what, idx)
	}
	p := f.sections[idx].payload
	size := 8
	if kind == kindI32 {
		size = 4
	}
	if wantLen >= 0 && len(p)/size != wantLen {
		return nil, corrupt("%s: column %d has %d elements, want %d", what, idx, len(p)/size, wantLen)
	}
	return p, nil
}

// ColI64 returns a validated []int64 column as a zero-copy view.
func (f *File) ColI64(idx int) ([]int64, error) {
	p, err := f.col(idx, kindI64, -1, "i64 column")
	if err != nil {
		return nil, err
	}
	return bytesI64(p), nil
}

// ColI32 returns a validated []int32 column as a zero-copy view.
func (f *File) ColI32(idx int) ([]int32, error) {
	p, err := f.col(idx, kindI32, -1, "i32 column")
	if err != nil {
		return nil, err
	}
	return bytesI32(p), nil
}

// ColF64 returns a validated []float64 column as a zero-copy view.
func (f *File) ColF64(idx int) ([]float64, error) {
	p, err := f.col(idx, kindF64, -1, "f64 column")
	if err != nil {
		return nil, err
	}
	return bytesF64(p), nil
}

// ColInt returns an []int64 column viewed as []int (zero-copy on
// 64-bit hosts).
func (f *File) ColInt(idx int) ([]int, error) {
	xs, err := f.ColI64(idx)
	if err != nil {
		return nil, err
	}
	return i64AsInt(xs), nil
}

// DictNames returns the decoded dictionary names in code order (nil
// when the snapshot has no dictionary).
func (f *File) DictNames() []string { return f.dictNames }

// Sections reports the section count (for inspection tools).
func (f *File) Sections() int { return len(f.sections) }

// SectionInfo describes one section for inspection tools.
type SectionInfo struct {
	Kind  string `json:"kind"`
	Bytes int    `json:"bytes"`
}

// SectionInfos lists every section's kind and payload size.
func (f *File) SectionInfos() []SectionInfo {
	kinds := map[uint32]string{
		kindI64: "i64", kindI32: "i32", kindF64: "f64",
		kindBytes: "bytes", kindMeta: "meta",
	}
	out := make([]SectionInfo, len(f.sections))
	for i, s := range f.sections {
		out[i] = SectionInfo{Kind: kinds[s.kind], Bytes: len(s.payload)}
	}
	return out
}

// validate checks the meta document against the sections: every column
// reference must exist with the right kind and length, so later
// accessors cannot fail and consumers can index within declared shapes
// without panicking.
func (f *File) validate() error {
	m := &f.Meta
	tuples := 0
	seen := make(map[string]bool, len(m.Relations))
	for i, rm := range m.Relations {
		if rm.Name == "" || seen[rm.Name] {
			return corrupt("relation %d: empty or duplicate name %q", i, rm.Name)
		}
		seen[rm.Name] = true
		if rm.Arity < 0 || rm.Rows < 0 {
			return corrupt("relation %q: negative shape", rm.Name)
		}
		want := rm.Rows * rm.Arity
		if rm.Arity == 0 {
			want = rm.Rows // nullary relations store one sentinel per tuple
		}
		if _, err := f.col(rm.Col, kindI64, want, "relation "+rm.Name); err != nil {
			return err
		}
		tuples += rm.Rows
	}
	if m.Tuples != tuples {
		return corrupt("meta claims %d tuples, relations hold %d", m.Tuples, tuples)
	}
	if m.Dict != nil {
		if err := f.decodeDict(); err != nil {
			return err
		}
	}
	for i := range m.Structures {
		if err := f.validateStructure(&m.Structures[i]); err != nil {
			return fmt.Errorf("structure %d: %w", i, err)
		}
	}
	for i, rm := range m.Registrations {
		if rm.Name == "" {
			return corrupt("registration %d: empty name", i)
		}
	}
	return nil
}

func (f *File) decodeDict() error {
	d := f.Meta.Dict
	if d.Count < 0 {
		return corrupt("dict: negative count")
	}
	blob, err := f.col(d.Blob, kindBytes, -1, "dict blob")
	if err != nil {
		return err
	}
	names := make([]string, 0, min(d.Count, len(blob)/4+1))
	for i := 0; i < d.Count; i++ {
		if len(blob) < 4 {
			return corrupt("dict: truncated at name %d", i)
		}
		n := binary.LittleEndian.Uint32(blob[:4])
		blob = blob[4:]
		if uint64(n) > uint64(len(blob)) {
			return corrupt("dict: name %d overruns blob", i)
		}
		names = append(names, string(blob[:n]))
		blob = blob[n:]
	}
	if len(blob) != 0 {
		return corrupt("dict: %d trailing blob bytes", len(blob))
	}
	f.dictNames = names
	return nil
}

func (f *File) validateStructure(sm *StructureMeta) error {
	if sm.NumVars < 0 || sm.NumVars > 64 {
		return corrupt("%d variables out of range", sm.NumVars)
	}
	switch sm.Kind {
	case KindLayeredLex:
		return f.validateLex(sm)
	case KindSum, KindMaterialized:
		if sm.Rows < 0 {
			return corrupt("negative row count")
		}
		if _, err := f.col(sm.AnswersCol, kindI64, sm.Rows*sm.NumVars, "answers"); err != nil {
			return err
		}
		if sm.Kind == KindSum || sm.WeightsCol != NoCol {
			if _, err := f.col(sm.WeightsCol, kindF64, sm.Rows, "weights"); err != nil {
				return err
			}
		}
		return nil
	default:
		return corrupt("unknown structure kind %q", sm.Kind)
	}
}

func (f *File) validateLex(sm *StructureMeta) error {
	if sm.Boolean {
		if len(sm.Layers) != 0 || len(sm.Completed) != 0 {
			return corrupt("boolean structure with layers")
		}
		return nil
	}
	if len(sm.Layers) != len(sm.Completed) {
		return corrupt("%d layers vs %d completed-order entries", len(sm.Layers), len(sm.Completed))
	}
	for i, e := range sm.Completed {
		if e.Var < 0 || e.Var >= sm.NumVars {
			return corrupt("completed-order entry %d: variable %d out of range", i, e.Var)
		}
	}
	children := make([]int, len(sm.Layers))
	for i := range sm.Layers {
		lm := &sm.Layers[i]
		what := fmt.Sprintf("layer %d", i)
		if lm.Var < 0 || lm.Var >= sm.NumVars {
			return corrupt("%s: variable %d out of range", what, lm.Var)
		}
		if (i == 0) != (lm.Parent == -1) || lm.Parent >= i || lm.Parent < -1 {
			return corrupt("%s: bad parent %d", what, lm.Parent)
		}
		for _, u := range lm.KeyVars {
			if u < 0 || u >= sm.NumVars {
				return corrupt("%s: key variable %d out of range", what, u)
			}
		}
		if i > 0 {
			children[lm.Parent]++
		}
	}
	for i := range sm.Layers {
		lm := &sm.Layers[i]
		what := fmt.Sprintf("layer %d", i)
		vals, err := f.col(lm.ValsCol, kindI64, -1, what+" vals")
		if err != nil {
			return err
		}
		n := len(vals) / 8
		if _, err := f.col(lm.StartsCol, kindI64, n, what+" starts"); err != nil {
			return err
		}
		if _, err := f.col(lm.ChildOfCol, kindI32, n*children[i], what+" child buckets"); err != nil {
			return err
		}
		weights, err := f.col(lm.BucketWeightCol, kindI64, -1, what+" bucket weights")
		if err != nil {
			return err
		}
		if _, err := f.col(lm.BucketStartCol, kindI64, len(weights)/8+1, what+" bucket starts"); err != nil {
			return err
		}
	}
	return nil
}
