package engine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/database"
	"rankedaccess/internal/snapshot"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// snapInstance builds a deterministic two-path instance.
func snapInstance(t testing.TB, n int) *database.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	_, in := workload.TwoPath(rng, n, n/8, 0.3)
	return in
}

// snapSpecs covers every persistable structure kind plus the skip
// paths (sharded, FDs).
var snapSpecs = []Spec{
	{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"},            // layered-lex
	{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "y desc, x"},          // layered-lex, partial+desc
	{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}},               // sum
	{Query: "Q(x, z) :- R(x, y), S(y, z)", Order: "x, z"},                  // materialized (projection)
	{Query: "Q(x, z) :- R(x, y), S(y, z)", SumBy: []string{"x", "z"}},      // materialized sum
	{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z", Shards: 4}, // sharded: skipped
}

// probeAll reads the first and last few answers of a handle.
func probeAll(t *testing.T, h *Handle) [][]values.Value {
	t.Helper()
	total := h.Total()
	ks := []int64{0, 1, total / 3, total / 2, total - 2, total - 1}
	var out [][]values.Value
	for _, k := range ks {
		if k < 0 || k >= total {
			continue
		}
		tu, err := h.AppendTuple(nil, k)
		if err != nil {
			t.Fatalf("access %d of %d: %v", k, total, err)
		}
		out = append(out, tu)
	}
	return out
}

func TestCheckpointOpenRoundTrip(t *testing.T) {
	in := snapInstance(t, 4096)
	e := New(in, Options{})
	want := make(map[int][][]values.Value)
	totals := make(map[int]int64)
	for i, s := range snapSpecs {
		h, err := e.Prepare(s)
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		want[i] = probeAll(t, h)
		totals[i] = h.Total()
	}
	if _, err := e.Register("roundtrip", snapSpecs[0]); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Structures != 5 || info.Skipped != 1 {
		t.Fatalf("persisted %d structures, skipped %d; want 5/1", info.Structures, info.Skipped)
	}
	if info.Registrations != 1 {
		t.Fatalf("persisted %d registrations, want 1", info.Registrations)
	}

	e2, warm, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !warm {
		t.Fatal("Open found no snapshot")
	}
	st := e2.Stats()
	if st.WarmStructures != 5 {
		t.Fatalf("warm structures = %d, want 5", st.WarmStructures)
	}
	if st.Version != e.Version() {
		t.Fatalf("version %d, want %d", st.Version, e.Version())
	}
	if st.Tuples != in.Size() {
		t.Fatalf("tuples %d, want %d", st.Tuples, in.Size())
	}
	misses := st.Misses
	for i, s := range snapSpecs[:5] {
		h, err := e2.Prepare(s)
		if err != nil {
			t.Fatalf("warm prepare %d: %v", i, err)
		}
		if h.Total() != totals[i] {
			t.Fatalf("spec %d: warm total %d, want %d", i, h.Total(), totals[i])
		}
		if got := probeAll(t, h); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("spec %d: warm answers %v, want %v", i, got, want[i])
		}
	}
	if st2 := e2.Stats(); st2.Misses != misses {
		t.Fatalf("warm prepares built %d structures; want pure cache hits", st2.Misses-misses)
	}
	// The skipped sharded spec rebuilds on demand and still answers
	// identically.
	for i, s := range snapSpecs[5:] {
		h, err := e2.Prepare(s)
		if err != nil {
			t.Fatalf("rebuild prepare %d: %v", i, err)
		}
		if got := probeAll(t, h); !reflect.DeepEqual(got, want[i+5]) {
			t.Fatalf("spec %d: rebuilt answers differ", i+5)
		}
	}
	// The registry rehydrated lazily: the first by-name acquire resolves
	// against the preloaded cache.
	pq, err := e2.Prepared("roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got := probeAll(t, h); !reflect.DeepEqual(got, want[0]) {
		t.Fatal("registry handle answers differ after warm start")
	}
}

// TestWarmStartFullScanByteIdentical compares the complete answer
// stream of a warm-started structure against the cold build, probed
// concurrently (run with -race).
func TestWarmStartFullScanByteIdentical(t *testing.T) {
	in := snapInstance(t, 2048)
	e := New(in, Options{})
	s := snapSpecs[0]
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.AccessRange(nil, 0, h.Total())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	e2, warm, err := Open(dir, Options{})
	if err != nil || !warm {
		t.Fatalf("open: warm=%v err=%v", warm, err)
	}
	defer e2.Close()
	h2, err := e2.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			total := h2.Total()
			chunk := (total + 7) / 8
			k0, k1 := int64(g)*chunk, min(int64(g+1)*chunk, total)
			got, err := h2.AccessRange(nil, k0, k1)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			w := h2.Width()
			if !reflect.DeepEqual(got, want[k0*int64(w):k1*int64(w)]) {
				t.Errorf("goroutine %d: warm answers differ in [%d, %d)", g, k0, k1)
			}
		}(g)
	}
	wg.Wait()
	// Inverted access works against the mapped structure too.
	a, err := h2.Access(17)
	if err != nil {
		t.Fatal(err)
	}
	k, err := h2.Inverted(a)
	if err != nil || k != 17 {
		t.Fatalf("inverted = %d, %v; want 17", k, err)
	}
}

// TestCheckpointSkipsShardFallback: a spec that asked for shards but
// fell back to one structure (a self-join cannot be partitioned) is one
// rehydrate refuses, so a checkpoint must not persist it — it used to,
// and every later Open or Restore of that file failed.
func TestCheckpointSkipsShardFallback(t *testing.T) {
	e := New(snapInstance(t, 64), Options{})
	s := Spec{Query: "Q(x, y, z) :- R(x, y), R(y, z)", Shards: 2}
	h, err := e.Prepare(s)
	if err != nil || h.Plan.ShardNote == "" {
		t.Fatalf("prepare: note %q, err %v; want an unsharded fallback", h.Plan.ShardNote, err)
	}
	dir := t.TempDir()
	info, err := e.Checkpoint(dir)
	if err != nil || info.Skipped != 1 || info.Structures != 0 {
		t.Fatalf("checkpoint %+v, err %v; want the fallback structure skipped", info, err)
	}
	e2, warm, err := Open(dir, Options{})
	if err != nil || !warm {
		t.Fatalf("open: warm=%v err=%v", warm, err)
	}
	e2.Close()
}

// TestCheckpointSkipsFDStructures: FD-extended structures carry
// closures that do not persist; checkpoints skip them and warm starts
// rebuild them on demand.
func TestCheckpointSkipsFDStructures(t *testing.T) {
	e := New(nil, Options{})
	rows := make([][]values.Value, 64)
	for i := range rows {
		rows[i] = []values.Value{values.Value(i), values.Value(i % 8)}
	}
	if err := e.AddRows("R", rows); err != nil {
		t.Fatal(err)
	}
	s := Spec{Query: "Q(x, y) :- R(x, y)", Order: "y", FDs: []string{"R: x -> y"}}
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	want := probeAll(t, h)
	dir := t.TempDir()
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 1 {
		t.Fatalf("skipped %d structures, want 1 (the FD-extended one)", info.Skipped)
	}
	e2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	h2, err := e2.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := probeAll(t, h2); !reflect.DeepEqual(got, want) {
		t.Fatal("FD structure rebuilt after warm start answers differently")
	}
}

func TestOpenEmptyDir(t *testing.T) {
	e, warm, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("warm start from an empty directory")
	}
	if err := e.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if n, err := e.Count("Q(x, y) :- R(x, y)"); err != nil || n != 1 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

// TestUnsaved: what a checkpoint into the engine's directory would add —
// a version, a registration or an eviction — whoever checkpointed last.
func TestUnsaved(t *testing.T) {
	dir := t.TempDir()
	e, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, unsaved bool) {
		t.Helper()
		if e.Unsaved() != unsaved {
			t.Fatalf("%s: Unsaved = %v", what, !unsaved)
		}
	}
	checkpoint := func(into string) {
		t.Helper()
		if _, err := e.Checkpoint(into); err != nil {
			t.Fatal(err)
		}
	}
	step("a fresh directory", true)
	checkpoint(dir)
	step("checkpointed", false)
	if err := e.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	step("a write", true)
	checkpoint(dir)
	pq, err := e.Register("q", Spec{Query: "Q(x, y) :- R(x, y)"})
	if err != nil {
		t.Fatal(err)
	}
	step("a registration", true)
	checkpoint(t.TempDir())
	step("checkpointed elsewhere", true)
	checkpoint(dir)
	if e.Evict("absent") || e.EvictID(PreparedID{Name: "q", Gen: pq.ID().Gen + 1}) {
		t.Fatal("evicted what is not registered")
	}
	step("evictions of nothing", false)
	if !e.EvictID(pq.ID()) {
		t.Fatal("EvictID of the registration failed")
	}
	step("an eviction by id", true)
	checkpoint(dir)
	if _, err := e.Register("q", Spec{Query: "Q(x, y) :- R(x, y)"}); err != nil {
		t.Fatal(err)
	}
	checkpoint(dir)
	if !e.Evict("q") {
		t.Fatal("Evict of the registration failed")
	}
	step("an eviction by name", true)
	if _, err := e.Register("p", Spec{Query: "Q(x, y) :- R(x, y)"}); err != nil {
		t.Fatal(err)
	}
	checkpoint(dir)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, _, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	step("a warm start", false)
	if ps := e.ListPrepared(); len(ps) != 1 || ps[0].ID.Name != "p" {
		t.Fatalf("warm start registry %+v, want p alone", ps)
	}
}

// TestMutationAfterWarmStart: a warm-started engine is a normal engine;
// mutations invalidate mapped structures and rebuilds see the new data.
func TestMutationAfterWarmStart(t *testing.T) {
	in := snapInstance(t, 512)
	e := New(in, Options{})
	s := snapSpecs[0]
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	before := h.Total()
	dir := t.TempDir()
	if _, err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	e2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// A y value present on both sides guarantees new answers.
	if err := e2.AddRows("R", [][]values.Value{{1 << 40, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := e2.AddRows("S", [][]values.Value{{3, 1 << 41}}); err != nil {
		t.Fatal(err)
	}
	h2, err := e2.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Total() <= before {
		t.Fatalf("total %d after mutation, was %d before", h2.Total(), before)
	}
}

func TestRestoreIntoLiveEngine(t *testing.T) {
	in := snapInstance(t, 512)
	e := New(in, Options{})
	s := snapSpecs[0]
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	want := probeAll(t, h)
	dir := t.TempDir()
	ck, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A different live engine, with other data and its own registration.
	e2 := New(nil, Options{})
	if err := e2.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Register("other", Spec{Query: "Q(x, y) :- R(x, y)"}); err != nil {
		t.Fatal(err)
	}
	vBefore := e2.Version()
	info, err := e2.Restore(filepath.Join(dir, ck.Name))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if info.Version <= vBefore || info.Version <= ck.Version {
		t.Fatalf("restore version %d does not move forward past %d/%d", info.Version, vBefore, ck.Version)
	}
	if _, err := e2.Prepared("other"); err == nil {
		t.Fatal("pre-restore registration survived the restore")
	}
	h2, err := e2.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := probeAll(t, h2); !reflect.DeepEqual(got, want) {
		t.Fatal("restored answers differ")
	}
	if st := e2.Stats(); st.Restores != 1 {
		t.Fatalf("restores = %d, want 1", st.Restores)
	}
}

func TestRestoreCorruptFileFailsCleanly(t *testing.T) {
	in := snapInstance(t, 256)
	e := New(in, Options{})
	if _, err := e.Prepare(snapSpecs[0]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ck, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, ck.Name)
	corruptFile(t, flipped, 100)
	paths := map[string]string{"flipped byte": flipped}
	// Valid checksums over rows in the wrong order: written, as any
	// writer could, from Parts() with two rows swapped.
	for i, name := range map[int]string{2: "permuted sum rows", 3: "permuted materialized rows", 4: "permuted materialized-sum rows"} {
		paths[name] = writeRowStructures(t, t.TempDir(), in, snapSpecs[i:i+1], func(rp *access.RowParts) {
			last := len(rp.Flat) - rp.NumVars
			for c := 0; c < rp.NumVars; c++ {
				rp.Flat[c], rp.Flat[last+c] = rp.Flat[last+c], rp.Flat[c]
			}
			if n := len(rp.Weights); n > 0 {
				rp.Weights[0], rp.Weights[n-1] = rp.Weights[n-1], rp.Weights[0]
			}
		})
	}
	vBefore := e.Version()
	for name, path := range paths {
		if _, err := e.Restore(path); err == nil {
			t.Fatalf("%s: restore of a corrupt snapshot succeeded", name)
		}
		if e.Version() != vBefore {
			t.Fatalf("%s: failed restore mutated the engine", name)
		}
		if n, err := e.Count(snapSpecs[0].Query); err != nil || n == 0 {
			t.Fatalf("%s: engine unusable after failed restore: %d, %v", name, n, err)
		}
	}
}

// writeRowStructures writes a snapshot of in holding one SUM or
// materialized structure per spec, laid out by hand — sm.Kind,
// sm.MatIsLex and the column layout are file format, not
// implementation. The structures are built here, straight from
// internal/access, and their row parts pass through mutate on the way
// to the file.
func writeRowStructures(t *testing.T, dir string, in *database.Instance, specs []Spec, mutate func(*access.RowParts)) string {
	t.Helper()
	b := snapshot.NewBuilder(1, 1)
	for _, name := range in.Names() {
		r := in.Relation(name)
		b.AddRelation(name, r.Arity(), r.Data())
	}
	for _, s := range specs {
		p, err := parseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		sm := snapshot.StructureMeta{Spec: s, NumVars: p.q.NumVars(), WeightsCol: snapshot.NoCol}
		var rp *access.RowParts
		if v, _ := p.directAccess(); !v.Tractable {
			sm.Kind, sm.MatIsLex = snapshot.KindMaterialized, !p.sum
			if p.sum {
				rp, _ = access.BuildMaterializedSum(p.q, in, p.w).Parts()
			} else {
				rp, _ = access.BuildMaterializedLex(p.q, in, p.l).Parts()
			}
		} else {
			sa, err := access.BuildSum(p.q, in, p.w)
			if err != nil {
				t.Fatal(err)
			}
			sm.Kind, sm.Tractable = snapshot.KindSum, true
			rp, _ = sa.Parts()
		}
		mutate(rp)
		sm.Rows = len(rp.Flat) / rp.NumVars
		sm.Total = int64(sm.Rows)
		sm.AnswersCol = b.I64Col(rp.Flat)
		if rp.Weights != nil {
			sm.WeightsCol = b.F64Col(rp.Weights)
		}
		b.AddStructure(sm)
	}
	name, _, err := snapshot.WriteFile(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, name)
}

// TestRestoreParentFormatCheckpoint is the version 1 migration check.
// The snapshot package's testdata/v1.rka is a checkpoint the version 1
// engine wrote of snapInstance(128) with snapSpecs[:5] registered under
// v1Names. It opens warm: relations and registrations intact, the SUM
// and materialized structures cache hits, the layered-lex ones rebuilt
// from their specs (one miss each), and every spec's full scan
// byte-identical to a cold build. A version 2 checkpoint of the result
// re-encodes byte-identically.
func TestRestoreParentFormatCheckpoint(t *testing.T) {
	v1, err := os.ReadFile("../snapshot/testdata/v1.rka")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshot.FileName(0, 1)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	in := snapInstance(t, 128)
	specs := snapSpecs[:5]
	v1Names := []string{"lex", "lex-desc", "sum", "mat", "mat-sum"}

	cold := New(in, Options{})
	e, warm, err := Open(dir, Options{})
	if err != nil || !warm {
		t.Fatalf("open: warm=%v err=%v", warm, err)
	}
	defer e.Close()
	st := e.Stats()
	if st.Tuples != in.Size() || st.WarmStructures != 3 {
		t.Fatalf("%d tuples (want %d), %d warm structures (want 3)", st.Tuples, in.Size(), st.WarmStructures)
	}
	layered := uint64(0)
	for i, s := range specs {
		pq, err := e.Prepared(v1Names[i])
		if err != nil || !reflect.DeepEqual(pq.Spec(), s) {
			t.Fatalf("registration %q: %v, spec %+v", v1Names[i], err, pq)
		}
		hc, err := cold.Prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		hw, err := pq.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		want, err := hc.AccessRange(nil, 0, hc.Total())
		if err != nil {
			t.Fatal(err)
		}
		got, err := hw.AccessRange(nil, 0, hw.Total())
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %d: warm scan of the v1 checkpoint differs from the cold build (%v)", i, err)
		}
		if hw.Plan.Mode != hc.Plan.Mode || hw.Plan.Tractable != hc.Plan.Tractable {
			t.Fatalf("spec %d: warm plan %+v, cold %+v", i, hw.Plan, hc.Plan)
		}
		if hc.Plan.Mode == ModeLayeredLex {
			layered++
		}
	}
	if st2 := e.Stats(); layered != 2 || st2.Misses-st.Misses != layered {
		t.Fatalf("warm prepares built %d structures; want one per layered spec (%d)", st2.Misses-st.Misses, layered)
	}
	// The meta section spells a spec as version 1's snapshot.SpecMeta
	// did, key for key (the type is the /v1 wire's api.Spec now).
	spec, err := json.Marshal(snapshot.SpecMeta{Query: "Q(x) :- R(x)", Order: "x", SumBy: []string{"x"}, FDs: []string{"R: x"}, Shards: 2, ShardBy: "x"})
	if want := `{"query":"Q(x) :- R(x)","order":"x","sum_by":["x"],"fds":["R: x"],"shards":2,"shard_by":"x"}`; err != nil || string(spec) != want {
		t.Fatalf("spec meta %s (%v), want %s", spec, err, want)
	}

	v2dir := t.TempDir()
	ck, err := e.Checkpoint(v2dir)
	if err != nil || ck.Structures != len(specs) {
		t.Fatalf("checkpoint: %+v, %v", ck, err)
	}
	v2, err := os.ReadFile(filepath.Join(v2dir, ck.Name))
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Decode(v2)
	if err != nil || f.Version != snapshot.FormatVersion {
		t.Fatalf("decode of the v2 checkpoint: %v", err)
	}
	if again, err := f.Encode(); err != nil || !bytes.Equal(again, v2) {
		t.Fatalf("the v2 checkpoint does not re-encode byte-identically (%v)", err)
	}
}

func corruptFile(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointList checks the directory listing and latest-selection
// helpers through multiple checkpoints.
func TestCheckpointList(t *testing.T) {
	e := New(snapInstance(t, 256), Options{})
	dir := t.TempDir()
	if _, err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{9, 9}}); err != nil {
		t.Fatal(err)
	}
	ck2, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := snapshot.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listed %d snapshots, want 2", len(infos))
	}
	latest, ok, err := snapshot.Latest(dir)
	if err != nil || !ok {
		t.Fatalf("latest: %v %v", ok, err)
	}
	if latest != ck2.Name {
		t.Fatalf("latest = %q, want %q", latest, ck2.Name)
	}
	if infos[0].EngineVersion != ck2.Version {
		t.Fatalf("listed version %d, want %d", infos[0].EngineVersion, ck2.Version)
	}
}

func BenchmarkColdBuild(b *testing.B) {
	in := snapInstance(b, 1<<16)
	s := Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(in, Options{})
		h, err := e.Prepare(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Access(h.Total() / 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmStart(b *testing.B) {
	in := snapInstance(b, 1<<16)
	s := Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	e := New(in, Options{})
	if _, err := e.Prepare(s); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := e.Checkpoint(dir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		we, warm, err := Open(dir, Options{})
		if err != nil || !warm {
			b.Fatalf("warm=%v err=%v", warm, err)
		}
		h, err := we.Prepare(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Access(h.Total() / 2); err != nil {
			b.Fatal(err)
		}
		we.Close()
	}
}

func TestCheckpointTinyEngine(t *testing.T) {
	e := New(nil, Options{})
	if err := e.AddRows("R", [][]values.Value{{1, 10}, {2, 20}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(Spec{Query: "Q(x, y) :- R(x, y)", Order: "x"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Structures != 1 {
		t.Fatalf("persisted %d structures, want 1", info.Structures)
	}
	warm, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	h, err := warm.Prepare(Spec{Query: "Q(x, y) :- R(x, y)", Order: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 2 {
		t.Fatalf("total = %d, want 2", h.Total())
	}
}
