package access

import (
	"fmt"
	"slices"
	"sort"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// LexBuf holds the state of one access probe, so steady-state probes
// allocate nothing. A LexBuf may be reused across any number of calls
// against the structure that created it, but not concurrently: use one
// LexBuf per goroutine (or the pooling convenience APIs).
//
// It is also a scan position. After a successful AccessInto(buf, k) the
// buffer remembers the descent — per layer the bucket entered, where it
// ends and the tuple chosen — and that it holds answer k; the step's
// per-row test reads only the buffer. AccessInto(buf, k+1) then
// moves to the successor (Remark 3) without descending. Any other rank
// descends as before, and whatever fails or borrows the scratch for
// something else (an error return, Rank) leaves next at 0, "holds
// nothing", so a step never starts from a state no descent produced.
type LexBuf struct {
	ans    []values.Value
	bucket []int // per layer: the bucket the probe entered
	tuple  []int // per layer: the tuple it chose there
	end    []int // per layer: the end of that bucket, where the step stops
	next   int64 // the rank after the answer held; 0 when none is
}

// NewBuf returns a probe buffer sized for this structure.
func (la *Lex) NewBuf() *LexBuf {
	f := len(la.layers)
	idx := make([]int, 3*f)
	return &LexBuf{
		ans:    make([]values.Value, la.numVars),
		bucket: idx[:f:f],
		tuple:  idx[f : 2*f : 2*f],
		end:    idx[2*f:],
	}
}

// GetBuf borrows a probe buffer from the structure's pool and PutBuf
// returns it: the allocating convenience wrappers (and callers that
// probe in short bursts, like a shard node serving one batch) skip the
// scratch allocations in steady state. A borrowed buffer that is never
// returned is garbage, not a leak.
func (la *Lex) GetBuf() *LexBuf {
	if b, ok := la.bufs.Get().(*LexBuf); ok {
		return b
	}
	return la.NewBuf()
}

// PutBuf returns a buffer borrowed with GetBuf.
func (la *Lex) PutBuf(b *LexBuf) { la.bufs.Put(b) }

// Access returns the k-th answer (0-based) in the completed
// lexicographic order, in O(log n) time (Algorithm 1). The returned
// answer is freshly allocated; use AccessInto to reuse a caller buffer.
func (la *Lex) Access(k int64) (order.Answer, error) {
	buf := la.GetBuf()
	a, err := la.AccessInto(buf, k)
	if err != nil {
		la.PutBuf(buf)
		return nil, err
	}
	out := append(order.Answer(nil), a...)
	la.PutBuf(buf)
	return out, nil
}

// AccessInto is Access writing into buf: the returned answer aliases
// buf's storage and is valid until buf's next use. Steady-state calls
// perform zero allocations (FD-extended structures excepted: their
// answer projection still copies). When k follows the answer buf holds
// the call is a successor step, O(1) amortized over a scan, instead of
// the O(log n) descent (see LexBuf).
func (la *Lex) AccessInto(buf *LexBuf, k int64) (order.Answer, error) {
	if la.boolean {
		if la.boolTrue && k == 0 {
			ans := buf.ans[:la.numVars]
			clear(ans)
			return la.output(ans), nil
		}
		return nil, ErrOutOfBound
	}
	if k < 0 || k >= la.total {
		buf.next = 0
		return nil, ErrOutOfBound
	}
	if k == buf.next && k != 0 {
		return la.step(buf)
	}
	buf.next = 0 // until the descent succeeds
	held := k
	f := len(la.layers)
	bucket, tuple, end := buf.bucket[:f], buf.tuple[:f], buf.end[:f]
	bucket[0] = 0
	factor := la.total
	ans := buf.ans[:la.numVars]
	clear(ans) // existential positions must read as zero, as before
	for i := 0; i < f; i++ {
		ly := &la.layers[i]
		b := bucket[i]
		factor /= ly.bucketWeight[b]
		lo, hi := ly.bucketStart[b], ly.bucketStart[b+1]
		// Largest tuple index t in [lo, hi) with starts[t]*factor ≤ k.
		t := lo + sort.Search(hi-lo, func(j int) bool {
			return ly.starts[lo+j]*factor > k
		}) - 1
		if t < lo {
			return nil, fmt.Errorf("access: internal: binary search fell off bucket")
		}
		k -= ly.starts[t] * factor
		tuple[i], end[i] = t, hi
		ans[ly.v] = ly.vals[t]
		nc := len(ly.children)
		for j, c := range ly.children {
			cb := int(ly.childOf[t*nc+j])
			bucket[c] = cb
			factor *= la.layers[c].bucketWeight[cb]
		}
	}
	if k != 0 {
		return nil, fmt.Errorf("access: internal: residual index %d after descent", k)
	}
	buf.next = held + 1
	return la.output(ans), nil
}

// step moves buf from the answer it holds to the next one in the
// completed order: the deepest layer with a tuple left in its bucket
// advances, and every later layer restarts at the first tuple of the
// bucket its parent's tuple selects. A later layer whose restart tuple
// is the one it already held has not moved, so its answer slot and its
// children's buckets stand. The usual case is the last layer advancing:
// one compare and one load.
func (la *Lex) step(buf *LexBuf) (order.Answer, error) {
	f := len(la.layers)
	bucket, tuple, end := buf.bucket[:f], buf.tuple[:f], buf.end[:f]
	ans := buf.ans[:la.numVars]
	i := f - 1
	for i >= 0 && tuple[i]+1 == end[i] {
		i--
	}
	if i < 0 {
		buf.next = 0
		return nil, fmt.Errorf("access: internal: no successor below the answer count")
	}
	t := tuple[i] + 1
	for j := i; j < f; j++ {
		ly := &la.layers[j]
		if j > i {
			b := bucket[j]
			if t = ly.bucketStart[b]; t == tuple[j] {
				continue
			}
			end[j] = ly.bucketStart[b+1]
		}
		tuple[j] = t
		ans[ly.v] = ly.vals[t]
		nc := len(ly.children)
		for x, c := range ly.children {
			bucket[c] = int(ly.childOf[t*nc+x])
		}
	}
	buf.next++
	return la.output(ans), nil
}

// AppendTuple appends the head projection of the k-th answer to dst and
// returns the extended slice, allocating only when dst lacks capacity.
func (la *Lex) AppendTuple(dst []values.Value, k int64) ([]values.Value, error) {
	buf := la.GetBuf()
	a, err := la.AccessInto(buf, k)
	if err != nil {
		la.PutBuf(buf)
		return dst, err
	}
	dst = appendHead(dst, la.Query.Head, a)
	la.PutBuf(buf)
	return dst, nil
}

// AppendRange appends the head projections of answers k0 ≤ k < k1 to
// dst through one probe buffer: one descent to k0, then a successor
// step per answer (no allocation beyond dst growth).
func (la *Lex) AppendRange(dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if k0 < 0 || k1 < k0 || k1 > la.total {
		return dst, ErrOutOfBound
	}
	buf := la.GetBuf()
	defer la.PutBuf(buf)
	for k := k0; k < k1; k++ {
		a, err := la.AccessInto(buf, k)
		if err != nil {
			return dst, err
		}
		dst = appendHead(dst, la.Query.Head, a)
	}
	return dst, nil
}

// output applies the FD projection (identity when no FDs are in play).
func (la *Lex) output(a order.Answer) order.Answer {
	if la.project != nil {
		return la.project(a)
	}
	return a
}

// input applies the FD answer-extension (identity without FDs). The bool
// is false when the given tuple cannot be extended (hence is not an
// answer and no answer shares its projection).
func (la *Lex) input(a order.Answer) (order.Answer, bool) {
	if la.extend != nil {
		return la.extend(a)
	}
	return a, true
}

// Head returns the head variables of Query.
func (la *Lex) Head() []cq.VarID { return la.Query.Head }

// Compare is the completed order, which names every free variable and
// so totally orders answers (Lemma 4.4).
func (la *Lex) Compare(a, b order.Answer) int { return la.Completed.Compare(a, b) }

// Rank returns the number of answers strictly preceding the given tuple
// in the completed order, and whether the tuple is itself an answer. The
// tuple is VarID-indexed and must assign every free variable of Query.
// Runs in O(log n).
func (la *Lex) Rank(a order.Answer) (int64, bool) {
	if la.boolean {
		return 0, la.boolTrue
	}
	ext, ok := la.input(a)
	if !ok {
		// The tuple disagrees with the FDs, so it is not an answer, and
		// its rank cannot be resolved below a missing implied value; rank
		// counts answers preceding it on the original-order prefix only.
		ext = a
	}
	if la.total == 0 {
		return 0, false
	}
	f := len(la.layers)
	buf := la.GetBuf()
	defer la.PutBuf(buf)
	buf.next = 0 // the descent below overwrites bucket: buf holds no answer
	bucket := buf.bucket[:f]
	bucket[0] = 0
	factor := la.total
	var k int64
	exact := ok
	for i := 0; i < f; i++ {
		ly := &la.layers[i]
		b := bucket[i]
		factor /= ly.bucketWeight[b]
		lo, hi := ly.bucketStart[b], ly.bucketStart[b+1]
		target := ext[ly.v]
		// Binary search for target under the layer direction.
		t := lo + sort.Search(hi-lo, func(j int) bool {
			if ly.dir == order.Desc {
				return ly.vals[lo+j] <= target
			}
			return ly.vals[lo+j] >= target
		})
		if t == hi || ly.vals[t] != target {
			// No tuple with this value: everything before position t
			// precedes the target; nothing deeper matches.
			if t == hi {
				k += ly.bucketWeight[b] * factor
			} else {
				k += ly.starts[t] * factor
			}
			return k, false
		}
		k += ly.starts[t] * factor
		nc := len(ly.children)
		for j, c := range ly.children {
			cb := int(ly.childOf[t*nc+j])
			bucket[c] = cb
			factor *= la.layers[c].bucketWeight[cb]
		}
	}
	return k, exact
}

// Inverted implements Algorithm 2: given an answer, return its index in
// the completed order; ErrNotAnAnswer if the tuple is not an answer.
func (la *Lex) Inverted(a order.Answer) (int64, error) { return Inverted(la, a) }

// NextGE returns the index of the first answer that is ≥ the given tuple
// in the completed order (Remark 3's "next answer" access); if every
// answer precedes the tuple, it returns ErrOutOfBound.
func (la *Lex) NextGE(a order.Answer) (int64, error) {
	k, _ := la.Rank(a)
	if k >= la.total {
		return 0, ErrOutOfBound
	}
	return k, nil
}

// LayerCount returns the number of layers (the number of free variables
// of the completed order); 0 for Boolean queries.
func (la *Lex) LayerCount() int { return len(la.layers) }

// BucketDump describes one tuple of one layer, for inspection and for
// reproducing Figure 4.
type BucketDump struct {
	Key    []values.Value
	Value  values.Value
	Weight int64
	Start  int64
}

// DumpLayer returns the per-tuple weight/start table of a layer in
// storage order, reproducing the annotations of Figure 4.
func (la *Lex) DumpLayer(i int) []BucketDump {
	ly := &la.layers[i]
	keys := la.bucketKeys(i)
	out := make([]BucketDump, 0, len(ly.vals))
	for b, key := range keys {
		for t := ly.bucketStart[b]; t < ly.bucketStart[b+1]; t++ {
			out = append(out, BucketDump{
				Key:    key,
				Value:  ly.vals[t],
				Weight: ly.weight(b, t),
				Start:  ly.starts[t],
			})
		}
	}
	return out
}

// bucketKeys derives the key of every bucket of layer i top-down: the
// root's one bucket has the empty key, and a child bucket's key is
// gathered from the key of a parent bucket and the value of a parent
// tuple selecting it. DumpLayer is the only reader of keys, so no layer
// stores them.
func (la *Lex) bucketKeys(i int) [][]values.Value {
	ly := &la.layers[i]
	keys := make([][]values.Value, len(ly.bucketWeight))
	if ly.parent < 0 {
		return keys
	}
	p := &la.layers[ly.parent]
	pkeys := la.bucketKeys(ly.parent)
	from, _ := keyFrom(p, ly) // build and restore both checked the plan
	nc, j := len(p.children), slices.Index(p.children, i)
	for pb, pkey := range pkeys {
		for t := p.bucketStart[pb]; t < p.bucketStart[pb+1]; t++ {
			b := p.childOf[t*nc+j]
			if keys[b] != nil {
				continue
			}
			keys[b] = make([]values.Value, len(from))
			for x, src := range from {
				if src < 0 {
					keys[b][x] = p.vals[t]
				} else {
					keys[b][x] = pkey[src]
				}
			}
		}
	}
	return keys
}

// LayerVar returns the lexicographic variable of layer i.
func (la *Lex) LayerVar(i int) values.Value { return values.Value(la.layers[i].v) }

// LayerParent returns the parent layer of layer i (-1 for the root).
func (la *Lex) LayerParent(i int) int { return la.layers[i].parent }
