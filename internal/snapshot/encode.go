package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// castagnoli is the CRC polynomial every section checksum uses
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section is one kind-tagged payload; payloads alias caller or file
// memory and are never mutated.
type section struct {
	kind    uint32
	payload []byte
}

// Builder assembles a snapshot: callers add column sections and fill
// the Meta that references them by index, then WriteTo emits the file.
// Add relations, structures, and registrations in a deterministic
// order — the encoding is canonical, so equal inputs yield equal bytes.
type Builder struct {
	meta     Meta
	sections []section
}

// NewBuilder starts a snapshot for the given engine version and wall
// time (passed in so tests can pin it).
func NewBuilder(engineVersion uint64, createdUnixNano int64) *Builder {
	return &Builder{meta: Meta{EngineVersion: engineVersion, CreatedUnixNano: createdUnixNano}}
}

func (b *Builder) addSection(kind uint32, payload []byte) int {
	b.sections = append(b.sections, section{kind: kind, payload: payload})
	return len(b.sections) - 1
}

// I64Col adds an []int64 column and returns its section index. The
// slice is aliased, not copied; it must stay unchanged until WriteTo.
func (b *Builder) I64Col(xs []int64) int { return b.addSection(kindI64, i64Bytes(xs)) }

// I32Col adds an []int32 column.
func (b *Builder) I32Col(xs []int32) int { return b.addSection(kindI32, i32Bytes(xs)) }

// F64Col adds a []float64 column (raw IEEE bits).
func (b *Builder) F64Col(xs []float64) int { return b.addSection(kindF64, f64Bytes(xs)) }

// IntCol adds an []int column, stored as int64 elements.
func (b *Builder) IntCol(xs []int) int { return b.I64Col(intAsI64(xs)) }

// AddRelation records one relation over its flat tuple storage
// (stride arity; one sentinel value per tuple for arity 0).
func (b *Builder) AddRelation(name string, arity int, data []int64) {
	rows := len(data)
	if arity > 0 {
		rows = len(data) / arity
	}
	b.meta.Relations = append(b.meta.Relations, RelationMeta{
		Name: name, Arity: arity, Rows: rows, Col: b.I64Col(data),
	})
	b.meta.Tuples += rows
}

// SetDict records the value dictionary's names in code order.
func (b *Builder) SetDict(names []string) {
	var blob []byte
	for _, n := range names {
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(n)))
		blob = append(blob, n...)
	}
	b.meta.Dict = &DictMeta{Count: len(names), Blob: b.addSection(kindBytes, blob)}
}

// AddStructure records one built structure; its column references must
// have been created on this builder.
func (b *Builder) AddStructure(sm StructureMeta) {
	b.meta.Structures = append(b.meta.Structures, sm)
}

// AddRegistration records one prepared-query registration.
func (b *Builder) AddRegistration(name string, spec SpecMeta) {
	b.meta.Registrations = append(b.meta.Registrations, RegistrationMeta{Name: name, Spec: spec})
}

// WriteTo emits the snapshot: header, column sections, and the Meta
// JSON as the final section.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	metaJSON, err := json.Marshal(&b.meta)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding meta: %w", err)
	}
	secs := make([]section, 0, len(b.sections)+1)
	secs = append(secs, b.sections...)
	secs = append(secs, section{kind: kindMeta, payload: metaJSON})
	return writeSections(w, FormatVersion, hostFlags(), secs)
}

// Bytes is WriteTo into memory, for tests and fuzzing.
func (b *Builder) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func hostFlags() uint32 {
	if hostLittle() {
		return flagLittleEndian
	}
	return 0
}

var pad8 [8]byte

// writeSections writes the canonical encoding: the one Decode accepts
// and reproduces byte-for-byte.
func writeSections(w io.Writer, version, flags uint32, secs []section) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [fileHeaderLen]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(secs)))
	total := int64(0)
	if _, err := bw.Write(hdr[:]); err != nil {
		return total, err
	}
	total += fileHeaderLen
	var sh [secHeaderLen]byte
	for _, s := range secs {
		binary.LittleEndian.PutUint32(sh[0:4], s.kind)
		binary.LittleEndian.PutUint32(sh[4:8], crc32.Checksum(s.payload, castagnoli))
		binary.LittleEndian.PutUint64(sh[8:16], uint64(len(s.payload)))
		if _, err := bw.Write(sh[:]); err != nil {
			return total, err
		}
		total += secHeaderLen
		if _, err := bw.Write(s.payload); err != nil {
			return total, err
		}
		total += int64(len(s.payload))
		if pad := (8 - len(s.payload)%8) % 8; pad > 0 {
			if _, err := bw.Write(pad8[:pad]); err != nil {
				return total, err
			}
			total += int64(pad)
		}
	}
	return total, bw.Flush()
}
