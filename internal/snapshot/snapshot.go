// Package snapshot implements the durable on-disk format for engine
// state: the database instance plus the built access structures
// (layered-lex layers, SUM orders, materialized orders), so a process
// restart pays a file map instead of re-running the paper's O(n log n)
// preprocessing.
//
// # Format
//
// A snapshot is one file:
//
//	[0:8)   magic "RKASNAP1"
//	[8:12)  u32 format version (currently 2)
//	[12:16) u32 flags (bit 0: column payloads are little-endian)
//	[16:24) u64 section count
//	then section count sections, each:
//	  [0:4)  u32 kind
//	  [4:8)  u32 CRC-32 (Castagnoli) of the payload
//	  [8:16) u64 payload length in bytes
//	  payload, zero-padded to the next 8-byte boundary
//
// The file header and the section headers are always little-endian;
// only the column payloads use the writer's native byte order, recorded
// in the flags, so a reader on a same-endian host can reconstruct every
// []int64 / []int32 / []float64 column zero-copy by pointing a slice at
// the mapped file. All payloads start 8-byte-aligned (the headers are
// multiples of 8 and every payload is padded), which is what makes the
// casts legal.
//
// The last section is the single kindMeta section: a JSON document (see
// Meta) naming the relations, structures, and prepared-query
// registrations and tying them to the column sections by index. Bulk
// data never lives in the JSON; the JSON only describes shape.
//
// Decoding is strict — unknown kinds, CRC mismatches, non-zero padding,
// truncated sections, and trailing bytes are all errors — so re-encoding
// a successfully decoded file reproduces it byte-for-byte (the property
// FuzzSnapshotRoundTrip enforces).
//
// # Versioning
//
// FormatVersion is bumped on any incompatible layout change; readers
// reject versions they do not know outright rather than guessing (see
// CONTRIBUTING.md for the bump policy). The Meta JSON may gain fields
// without a bump: decoders ignore unknown keys and the raw meta bytes
// are preserved verbatim on re-encode.
//
// Version 1 is still read, because a checkpoint truncates the WAL and
// refusing the file would strand its data. Its layered-lex layers
// persist a bucket index that version 2 replaced with childOf, so
// Decode drops those structures from Meta: the instance, registrations
// and row-array structures warm-start, and the engine rebuilds a
// layered structure from its spec on first prepare.
package snapshot

import "rankedaccess/internal/api"

// FormatVersion is the on-disk format version this package writes; it
// reads this one and version 1. See the package comment and
// CONTRIBUTING.md for the bump policy.
const FormatVersion = 2

// Section kinds. Columns are raw element arrays; kindMeta is the JSON
// table of contents and must be the last section, exactly once.
const (
	kindI64   = 1 // []int64 (also carries []int columns)
	kindI32   = 2 // []int32
	kindF64   = 3 // []float64, raw IEEE-754 bits
	kindBytes = 4 // opaque bytes (the dictionary string blob)
	kindMeta  = 5 // JSON Meta document
)

// flagLittleEndian marks column payloads written on a little-endian
// host.
const flagLittleEndian = 1

const (
	fileHeaderLen = 24
	secHeaderLen  = 16
)

var magic = [8]byte{'R', 'K', 'A', 'S', 'N', 'A', 'P', '1'}

// Structure kinds, matching the engine's plan modes.
const (
	KindLayeredLex   = "layered-lex"
	KindSum          = "sum"
	KindMaterialized = "materialized"
)

// NoCol marks an absent optional column reference (the zero value of an
// int is a valid section index, so absence needs a sentinel).
const NoCol = -1

// Meta is the JSON table of contents of a snapshot. Integer fields
// named *Col reference column sections by index.
type Meta struct {
	// EngineVersion is the instance version the snapshot captured.
	EngineVersion uint64 `json:"engine_version"`
	// CreatedUnixNano is the checkpoint wall time.
	CreatedUnixNano int64 `json:"created_unix_nano"`
	// Tuples is the instance size n across relations.
	Tuples int `json:"tuples"`

	Dict          *DictMeta          `json:"dict,omitempty"`
	Relations     []RelationMeta     `json:"relations,omitempty"`
	Structures    []StructureMeta    `json:"structures,omitempty"`
	Registrations []RegistrationMeta `json:"registrations,omitempty"`
}

// DictMeta locates the value dictionary: Count length-prefixed strings
// in the Blob section, in code order.
type DictMeta struct {
	Count int `json:"count"`
	Blob  int `json:"blob"`
}

// RelationMeta describes one relation: Rows tuples of the given arity,
// stored flat (stride Arity; one sentinel per tuple when Arity is 0) in
// the Col section.
type RelationMeta struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
	Rows  int    `json:"rows"`
	Col   int    `json:"col"`
}

// SpecMeta is the engine spec a structure or registration was built
// from: the /v1 wire type, whose JSON form the meta section stores.
type SpecMeta = api.Spec

// OrderEntryMeta is one component of a realized lexicographic order.
type OrderEntryMeta struct {
	Var  int  `json:"var"`
	Desc bool `json:"desc,omitempty"`
}

// LayerMeta describes one layer of a layered-lex structure: the columns
// its probes read. Children are not stored: they are recomputed from
// Parent at load. BucketStartCol holds one entry per bucket and then
// the tuple count; ChildOfCol one bucket per tuple per child.
type LayerMeta struct {
	Var     int   `json:"var"`
	Desc    bool  `json:"desc,omitempty"`
	Parent  int   `json:"parent"`
	KeyVars []int `json:"key_vars,omitempty"`

	ValsCol         int `json:"vals_col"`
	StartsCol       int `json:"starts_col"`
	ChildOfCol      int `json:"child_of_col"`
	BucketStartCol  int `json:"bucket_start_col"`
	BucketWeightCol int `json:"bucket_weight_col"`
}

// StructureMeta describes one built access structure keyed by its spec.
type StructureMeta struct {
	Spec      SpecMeta `json:"spec"`
	Kind      string   `json:"kind"`
	Tractable bool     `json:"tractable,omitempty"`
	Total     int64    `json:"total"`
	NumVars   int      `json:"num_vars"`

	// Layered-lex fields.
	Boolean   bool             `json:"boolean,omitempty"`
	BoolTrue  bool             `json:"bool_true,omitempty"`
	Completed []OrderEntryMeta `json:"completed,omitempty"`
	Layers    []LayerMeta      `json:"layers,omitempty"`

	// SUM / materialized fields: Rows answers of NumVars values each,
	// flat in AnswersCol, with per-answer weights in WeightsCol
	// (NoCol for lex materializations).
	Rows       int  `json:"rows,omitempty"`
	AnswersCol int  `json:"answers_col,omitempty"`
	WeightsCol int  `json:"weights_col,omitempty"`
	MatIsLex   bool `json:"mat_is_lex,omitempty"`
}

// RegistrationMeta is one prepared-query registration: the name and the
// spec to rehydrate it from (handles are rebuilt lazily on first use,
// hitting the preloaded structure cache).
type RegistrationMeta struct {
	Name string   `json:"name"`
	Spec SpecMeta `json:"spec"`
}
