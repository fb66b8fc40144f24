package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// byteSource turns fuzz input into choices; past its end every choice
// is 0.
type byteSource struct {
	data []byte
	i    int
}

func (s *byteSource) next(n int) int {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return int(b) % n
}

func (s *byteSource) done() bool { return s.i >= len(s.data) }

// oracleQuery draws a self-join-free CQ of 2–3 atoms R0, R1, R2 of arity
// 1–3 over variables x0..x3 and a non-empty head, with the head as its
// lex order.
func oracleQuery(src *byteSource) (text, lex string, arities []int) {
	atoms := make([]string, 2+src.next(2))
	var seen []string
	for i := range atoms {
		vars := make([]string, 1+src.next(3))
		for k := range vars {
			vars[k] = fmt.Sprintf("x%d", src.next(4))
			if !slices.Contains(seen, vars[k]) {
				seen = append(seen, vars[k])
			}
		}
		atoms[i] = fmt.Sprintf("R%d(%s)", i, strings.Join(vars, ", "))
		arities = append(arities, len(vars))
	}
	var head []string
	for _, v := range seen {
		if src.next(2) == 1 {
			head = append(head, v)
		}
	}
	if len(head) == 0 {
		head = seen[:1]
	}
	lex = strings.Join(head, ", ")
	return fmt.Sprintf("Q(%s) :- %s", lex, strings.Join(atoms, ", ")), lex, arities
}

// headSet keys answers by their head projection.
func headSet(q *cq.Query, as []order.Answer) map[string]bool {
	out := make(map[string]bool, len(as))
	for _, a := range as {
		out[headString(q, a)] = true
	}
	return out
}

func headString(q *cq.Query, a order.Answer) string {
	var b strings.Builder
	for _, v := range q.Head {
		fmt.Fprintf(&b, "%d,", a[v])
	}
	return b.String()
}

// catchUpOracle runs one query through a sequence of write batches
// drawn from data: inserts (duplicates included), deletes (of the last
// row, of rows whose removal moves the last row, of absent rows), and
// checkpoint restores, which replace the instance and its indexes.
// After every batch, delta.Diff over the engine's column indexes must
// return exactly the set differences of internal/baseline's answers
// before and after, every built column must index its relation
// exactly, and a catch-up through Prepare must answer baseline's sorted
// answers.
func catchUpOracle(t *testing.T, data []byte) {
	src := &byteSource{data: data}
	text, lex, arities := oracleQuery(src)
	q, err := cq.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	l, err := order.ParseLex(q, lex)
	if err != nil {
		t.Fatal(err)
	}
	randomRow := func(arity int) []values.Value {
		row := make([]values.Value, arity)
		for k := range row {
			row[k] = values.Value(src.next(4))
		}
		return row
	}
	in := database.NewInstance()
	for i, a := range arities {
		name := fmt.Sprintf("R%d", i)
		in.SetRelation(name, database.NewRelation(a))
		for n := 1 + src.next(8); n > 0; n-- {
			in.AddRow(name, randomRow(a)...)
		}
	}
	e := New(in, Options{})
	t.Cleanup(func() { e.Close() })
	spec := Spec{Query: text, Order: lex}
	rels := make(map[string]bool, len(arities))
	for i := range arities {
		rels[fmt.Sprintf("R%d", i)] = true
	}
	answers := func() []order.Answer {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return baseline.AllAnswers(q, e.in)
	}
	checkPrepare := func(step int) {
		t.Helper()
		h, err := e.Prepare(spec)
		if err != nil {
			t.Fatalf("step %d: prepare %s: %v", step, text, err)
		}
		e.mu.RLock()
		want := baseline.SortedByLex(q, e.in, l)
		e.mu.RUnlock()
		if h.Total() != int64(len(want)) {
			t.Fatalf("step %d: %s: handle has %d answers, baseline %d", step, text, h.Total(), len(want))
		}
		for k, w := range want {
			a, err := h.Access(int64(k))
			if err != nil || headString(q, a) != headString(q, w) {
				t.Fatalf("step %d: %s: answer %d = %v (%v), baseline %v", step, text, k, a, err, w)
			}
		}
	}
	checkPrepare(-1)
	before := answers()
	for step := 0; step < 24 && !src.done(); step++ {
		rel := src.next(len(arities))
		name := fmt.Sprintf("R%d", rel)
		r := in.Relation(name)
		var muts []delta.Mutation
		switch act := src.next(10); {
		case act < 4: // insert, often a duplicate of a present row
			var rows []values.Value
			for n := 1 + src.next(3); n > 0; n-- {
				if r.Len() > 0 && src.next(2) == 0 {
					rows = append(rows, r.Tuple(src.next(r.Len()))...)
				} else {
					rows = append(rows, randomRow(arities[rel])...)
				}
			}
			muts = append(muts, delta.Mutation{Op: delta.OpInsert, Rel: name, Arity: arities[rel], Rows: rows})
		case act < 8: // delete: any row, the last row, or an absent one
			var rows []values.Value
			for n := 1 + src.next(2); n > 0; n-- {
				switch pick := src.next(3); {
				case r.Len() > 0 && pick == 0:
					rows = append(rows, r.Tuple(src.next(r.Len()))...)
				case r.Len() > 0 && pick == 1:
					rows = append(rows, r.Tuple(r.Len()-1)...)
				default:
					rows = append(rows, randomRow(arities[rel])...)
				}
			}
			muts = append(muts, delta.Mutation{Op: delta.OpDelete, Rel: name, Arity: arities[rel], Rows: rows})
		case act < 9: // one batch inserting into one relation, deleting from another
			other := (rel + 1) % len(arities)
			oname := fmt.Sprintf("R%d", other)
			muts = append(muts, delta.Mutation{Op: delta.OpInsert, Rel: name, Arity: arities[rel], Rows: randomRow(arities[rel])})
			if o := in.Relation(oname); o.Len() > 0 {
				muts = append(muts, delta.Mutation{Op: delta.OpDelete, Rel: oname, Arity: arities[other],
					Rows: slices.Clone(o.Tuple(src.next(o.Len())))})
			}
		default: // a checkpoint restore
			dir := t.TempDir()
			ck, err := e.Checkpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Restore(filepath.Join(dir, ck.Name)); err != nil {
				t.Fatal(err)
			}
			in = e.in
		}
		if len(muts) > 0 {
			if _, err := e.ApplyBatch(muts); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		after := answers()
		checkIndexes(t, e)
		if len(muts) > 0 {
			sp := delta.CollectSpan([]delta.Batch{{Muts: muts}}, rels)
			old, cur := headSet(q, before), headSet(q, after)
			e.mu.RLock()
			adds, dels := delta.Diff(q, e.in, sp, func(a order.Answer) bool { return old[headString(q, a)] }, e.idx)
			e.mu.RUnlock()
			checkEdits(t, step, text, "adds", q, adds, cur, old)
			checkEdits(t, step, text, "dels", q, dels, old, cur)
		}
		checkPrepare(step)
		before = after
	}
}

// checkEdits checks that got is exactly in \ out, with no repeats.
func checkEdits(t *testing.T, step int, text, what string, q *cq.Query, got []order.Answer, in, out map[string]bool) {
	t.Helper()
	want := 0
	for k := range in {
		if !out[k] {
			want++
		}
	}
	seen := map[string]bool{}
	for _, a := range got {
		k := headString(q, a)
		if !in[k] || out[k] || seen[k] {
			t.Fatalf("step %d: %s: %s holds %v, which is not a new difference", step, text, what, a)
		}
		seen[k] = true
	}
	if len(got) != want {
		t.Fatalf("step %d: %s: %d %s, want %d", step, text, len(got), what, want)
	}
}

// checkIndexes checks that every built column indexes exactly the
// relation the instance holds under its name: each row sits once on the
// chain of its value, and every chain's count is its length.
func checkIndexes(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	for name, ri := range e.idx.rels {
		if ri.rel != e.in.Relation(name) {
			t.Fatalf("%s: the index holds a relation the instance no longer does", name)
		}
		n := ri.rel.Len()
		for c, ci := range ri.cols {
			if ci == nil {
				continue
			}
			if len(ci.next) != n {
				t.Fatalf("%s column %d: %d chain links for %d rows", name, c, len(ci.next), n)
			}
			onChain := make([]bool, n)
			for id := range ci.first {
				v := ci.keys.Key(id)[0]
				length := 0
				for p := ci.first[id]; p >= 0; p = ci.next[p] {
					if int(p) >= n || onChain[p] || ri.rel.Tuple(int(p))[c] != v {
						t.Fatalf("%s column %d: chain of %d reaches row %d wrongly", name, c, v, p)
					}
					onChain[p] = true
					length++
				}
				if length != int(ci.count[id]) {
					t.Fatalf("%s column %d: chain of %d has %d rows, count %d", name, c, v, length, ci.count[id])
				}
			}
			for p, ok := range onChain {
				if !ok {
					t.Fatalf("%s column %d: row %d is on no chain", name, c, p)
				}
			}
		}
	}
}

// TestCatchUpOracle is FuzzCatchUp's randomized run: seeded byte
// strings, each one query through its write sequence.
func TestCatchUpOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	runs := 300
	if testing.Short() {
		runs = 60
	}
	for i := 0; i < runs; i++ {
		data := make([]byte, 64+rng.Intn(192))
		rng.Read(data)
		t.Run(fmt.Sprint(i), func(t *testing.T) { catchUpOracle(t, data) })
	}
}

// FuzzCatchUp is the differential oracle of the catch-up path under
// fuzzing (see catchUpOracle).
func FuzzCatchUp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x00\x03\x01\x02\x01\x05\x00\x00\x01\x03\x02\x05\x01\x06\x00\x04\x09\x01"))
	f.Add([]byte("\x00\x01\x02\x03\x01\x00\x07\x01\x02\x03\x06\x09\x00\x05\x01\x01\x09\x01\x04\x02\x08\x03"))
	f.Fuzz(func(t *testing.T, data []byte) { catchUpOracle(t, data) })
}

// TestConcurrentCatchUps has several prepared handles over R and S
// catch up at once, racing on the first build of every column index,
// while a writer inserts and deletes; afterwards every handle must
// answer baseline's sorted answers. Run it under -race.
func TestConcurrentCatchUps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, in := workload.TwoPath(rng, 1000, 200, 0.3)
	e := New(in, Options{})
	defer e.Close()
	specs := []Spec{
		{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"},
		{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "z, y desc, x"},
		{Query: "Q(x, z) :- R(x, y), S(y, z)", Order: "x, z"},
		{Query: "Q(y, z) :- R(x, y), S(y, z)", Order: "y, z"},
	}
	pqs := make([]*PreparedQuery, len(specs))
	for i, s := range specs {
		pq, err := e.Register(fmt.Sprintf("q%d", i), s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pq.Acquire(); err != nil {
			t.Fatal(err)
		}
		pqs[i] = pq
	}
	if err := e.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}

	// Every reader's first catch-up runs before the writer starts, so
	// the first builds of the column indexes race with nothing but each
	// other.
	start := make(chan struct{})
	stop := make(chan struct{})
	var wg, first sync.WaitGroup
	errs := make(chan error, 64)
	for i, pq := range pqs {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			first.Add(1)
			go func(pq *PreparedQuery, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				<-start
				var last uint64
				for n := 0; ; n++ {
					h, err := pq.Acquire()
					if n == 0 {
						first.Done()
					}
					if err != nil {
						errs <- err
						return
					}
					if h.Version() < last {
						errs <- fmt.Errorf("%s: version went back %d → %d", pq.Spec().Order, last, h.Version())
						return
					}
					last = h.Version()
					if n := h.Total(); n > 0 {
						if _, err := h.Access(rng.Int63n(n)); err != nil {
							errs <- err
							return
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}(pq, int64(10*i+g))
		}
	}
	wrng := rand.New(rand.NewSource(11))
	var inserted [][2]values.Value
	close(start)
	first.Wait()
	for i := 0; i < 120; i++ {
		rel := []string{"R", "S"}[i%2]
		var err error
		switch {
		case i%4 == 3 && len(inserted) > 0:
			row := inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
			err = e.DeleteRows([]string{"R", "S"}[len(inserted)%2], [][]values.Value{row[:]})
		case i%7 == 6:
			// Delete a random existing row: its removal moves the last row.
			e.mu.RLock()
			r := e.in.Relation(rel)
			row := slices.Clone(r.Tuple(wrng.Intn(r.Len())))
			e.mu.RUnlock()
			err = e.DeleteRows(rel, [][]values.Value{row})
		default:
			row := [2]values.Value{wrng.Int63n(200), wrng.Int63n(200)}
			inserted = append(inserted, row)
			err = e.AddRows([]string{"R", "S"}[(len(inserted)-1)%2], [][]values.Value{row[:]})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.Quiesce()
	checkIndexes(t, e)
	for i, pq := range pqs {
		h, err := pq.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		q := h.Query
		l, err := order.ParseLex(q, specs[i].Order)
		if err != nil {
			t.Fatal(err)
		}
		e.mu.RLock()
		want := baseline.SortedByLex(q, e.in, l)
		e.mu.RUnlock()
		if h.Total() != int64(len(want)) {
			t.Fatalf("%v: %d answers, baseline %d", specs[i], h.Total(), len(want))
		}
		for k, w := range want {
			a, err := h.Access(int64(k))
			if err != nil || headString(q, a) != headString(q, w) {
				t.Fatalf("%v: answer %d = %v (%v), baseline %v", specs[i], k, a, err, w)
			}
		}
	}
}

// BenchmarkCatchUp times a one-row write to R and the probe that
// catches up after it, on the benchmark's instance shape (Q(x, y, z) :- R(x, y), S(y, z),
// n rows per relation, domain n/4, skew 0.4), and reports the bytes
// the column indexes hold once built. -benchtime 128x is the ladder's
// engine.catchup_us (128 pairs, below the background-rebuild
// threshold).
func BenchmarkCatchUp(b *testing.B) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(1))
	_, in := workload.TwoPath(rng, n, n/4, 0.4)
	e := New(in, Options{})
	defer e.Close()
	pq, err := e.Register("q", Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y desc, z"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pq.Acquire(); err != nil {
		b.Fatal(err)
	}
	// One catch-up first, so the timed ones find every column built.
	for i := 0; i <= b.N; i++ {
		if i == 1 {
			b.ResetTimer()
		}
		row := []values.Value{rng.Int63n(n / 4), rng.Int63n(n / 4)}
		if err := e.AddRows("R", [][]values.Value{row}); err != nil {
			b.Fatal(err)
		}
		if _, err := pq.Acquire(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(indexBytes(e)), "index-bytes")
}

// indexBytes returns the heap bytes of every built column.
func indexBytes(e *Engine) int {
	n := 0
	for _, ri := range e.idx.rels {
		for _, ci := range ri.cols {
			if ci != nil {
				n += ci.keys.Bytes() + 4*(cap(ci.first)+cap(ci.count)+cap(ci.next))
			}
		}
	}
	return n
}
