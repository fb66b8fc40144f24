// Package access implements the paper's ranked direct-access structures:
//
//   - the layered join tree (Definition 3.4) constructed per Lemma 3.9,
//   - the ⟨n log n, log n⟩ preprocessing of §3.1 (buckets, subtree counts,
//     start offsets),
//   - Algorithm 1 (direct access by lexicographic order),
//   - Algorithm 2 (inverted access) and the next-answer variant (Remark 3),
//   - partial-order completion (Lemma 4.4),
//   - the FD-extension wrappers of §8.2, and
//   - the ⟨n log n, 1⟩ direct access by SUM of Lemma 5.9.
//
// # One contract
//
// The paper builds one kind of object — a structure over Q(I) that
// answers count, access(k) and rank/inverted(a) in one realized total
// order — and everything built here answers by one interface,
// Structure: *Lex (Theorem 4.1), *Sum (Theorem 5.1), *Materialized (the
// materialize-and-sort fallback of the intractable side; with Sum it
// shares one row-array representation) and *Overlay (a structure plus
// sorted answer-level edits). How a structure of some kind answers, and
// what its total order is, is known here and nowhere else: shards,
// engine handles and cluster nodes hold a Structure.
//
// Aliasing. Access returns an answer the caller may keep. AccessInto
// takes a probe buffer borrowed with GetBuf and returns an answer that
// may alias that buffer (layered structures descend into it) or the
// structure's immutable storage (row arrays; their GetBuf is nil): it
// is valid until the buffer's next use and must not be mutated.
// AppendTuple and AppendRange copy head projections into the caller's
// slice and are the batched entry points — one dynamic call per
// operation, the per-row loop stays inside this package.
//
// Scans. A probe buffer carries scan state: after AccessInto(buf, k) it
// remembers the descent that found answer k, and AccessInto(buf, k+1)
// is a successor step (Remark 3) — the deepest layer with a tuple left
// in its bucket advances, later layers restart in the buckets their
// parents now select — not a second O(log n) descent. There is no scan
// API: every loop that probes consecutive ranks through one buffer gets
// the step for free — engine.Cursor.Next, a node's batched accesses,
// enum.RankedLexBuffered — and a probe of any other rank descends.
// AppendRange goes further, by runs. A run is the tuples left in the
// last layer's current bucket: consecutive answers inside it differ
// only in the last layer's variable, so AppendRange writes each of its
// rows as the row before with that one value rewritten, and steps only
// where a bucket ends. Whatever scans a window takes runs through it:
// an Overlay's base segments, engine ranges, cursor pages and streams,
// a shard node's Owned.Range. AppendRange leaves its buffer as a scan
// by rank would — holding answer k1−1 with that answer's bucket, tuple
// and bucket end per layer, next = k1 — so the buffer's next borrower
// may step from it. The step starts only from what a descent, an
// earlier step or a range left in that buffer (an error, or Rank's use
// of a pooled buffer, leaves it holding nothing), and the aliasing rule
// above is unchanged: the answer is valid until the buffer's next use,
// step or descent. The convenience wrappers (Access, AppendTuple)
// borrow a pooled buffer per call, so consecutive calls to them rarely
// meet the same buffer twice and should not be counted on to step.
//
// Descents. Access and Rank descend one layer at a time and search, in
// each, the bucket the layer above chose: one search per layer, so
// Theorem 3.3's O(log n). A leaf tuple weighs 1, so a leaf bucket's
// starts are 0, 1, 2, … and Access finds its tuple by index, k/factor
// entries in; checkChildOf holds restored parts to exactly those
// weights, which is what makes the index safe on a structure read
// from a file. Every other search starts where the range's endpoints
// predict its target: starts at the share of the bucket's weight below
// k, values at where the target falls between the bucket's first and
// last value, an Overlay's edits at k's share of the merged total.
// From that guess it gallops outward to a bracket and halves the
// bracket (guide); a bucket of 8 entries or fewer is scanned. A search
// over m entries makes at most about 2⌈log₂ m⌉ + 3 probes, a good
// guess two or three close together in memory, and every search
// returns the index a binary search would, so answers, probe buffers
// and scan states are what they were.
//
// Compare is the total order Access enumerates and Rank searches. A Lex
// realizes its Completed order, which names every free variable. A row
// array realizes what it was sorted by, recorded at build or restore
// time: the requested (possibly partial) lex order or ascending weight,
// ties broken by ascending head values. An Overlay keeps its base's.
//
// Overlay eligibility. An Overlay edits answers of the base's own shape,
// so any FD-free structure over a query with a non-empty head can carry
// one; BaseOfLex is that predicate for layered structures (not Boolean:
// no tuples to edit; not FD-extended: answers live in the extended
// space). FD-built Sums are out for the same reason. The engine adds a
// condition of its own for SUM orders (see its overlayEligible).
package access

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/hypergraph"
	"rankedaccess/internal/order"
	"rankedaccess/internal/par"
	"rankedaccess/internal/reduce"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// ErrOutOfBound is returned when the requested index is ≥ the number of
// answers (or negative), matching the paper's "out-of-bound" answer.
var ErrOutOfBound = errors.New("access: index out of bound")

// ErrNotAnAnswer is returned by inverted access when the given tuple is
// not an answer.
var ErrNotAnAnswer = errors.New("access: not an answer")

// ErrIntractable is the sentinel all *IntractableError values unwrap
// to, so callers can test the dichotomy side with errors.Is across
// every layer (engine, shard, serve) without knowing the concrete type.
var ErrIntractable = errors.New("access: intractable under the paper's dichotomy")

// IntractableError reports that the requested (query, order) pair is on
// the intractable side of the paper's dichotomy; it carries the verdict
// with the hardness certificate. It wraps ErrIntractable.
type IntractableError struct {
	Verdict classify.Verdict
}

func (e *IntractableError) Error() string {
	return "access: " + e.Verdict.String()
}

// Unwrap makes errors.Is(err, ErrIntractable) hold for every
// IntractableError.
func (e *IntractableError) Unwrap() error { return ErrIntractable }

// layer is one layer of the layered join tree: a node whose variables are
// keyVars ∪ {v}, with v the layer's lexicographic variable. Its relation
// is partitioned into buckets by keyVars values; inside a bucket, tuples
// are distinct v-values sorted by the layer's direction, each carrying
// the running sum of the answers its predecessors contribute in their
// subtrees (start). A tuple's own count, its weight, is the gap to the
// next start (see weight).
//
// A layer holds what the probes read and nothing else, whether it was
// built or restored: the relation and the key-to-bucket index that
// resolve childOf are build scaffolding (lexBuild), and DumpLayer
// derives bucket keys when asked.
type layer struct {
	v        cq.VarID
	dir      order.Direction
	keyVars  []cq.VarID
	parent   int
	children []int

	vals   []values.Value
	starts []int64

	// childOf[t*len(children)+j] is the bucket of layer children[j] that
	// tuple t selects, so the probes descend by array index and never
	// hash. nil for a leaf.
	childOf []int32

	// Bucket b holds tuples [bucketStart[b], bucketStart[b+1]) and weighs
	// bucketWeight[b]; bucketStart ends with the sentinel len(vals).
	bucketStart  []int
	bucketWeight []int64
}

// weight is the number of answers tuple t of bucket b contributes in its
// subtree: the gap to the next tuple's start, or to the bucket's weight
// for its last tuple.
func (ly *layer) weight(b, t int) int64 {
	if t+1 < ly.bucketStart[b+1] {
		return ly.starts[t+1] - ly.starts[t]
	}
	return ly.bucketWeight[b] - ly.starts[t]
}

// Lex is the direct-access structure for a lexicographic order.
type Lex struct {
	// Query is the query whose answers are accessed (the original one,
	// before any FD extension).
	Query *cq.Query
	// Completed is the full lexicographic order actually realized: the
	// requested order extended per Lemma 4.4 (and, with FDs, reordered
	// per Definition 8.13). Answers are totally ordered by it.
	Completed order.Lex

	layers  []layer
	total   int64
	numVars int

	bufs sync.Pool // *LexBuf, feeds the allocating convenience APIs

	// boolean handling for queries with no free variables.
	boolean  bool
	boolTrue bool

	// FD-extension plumbing (identity when no FDs are involved).
	project func(order.Answer) order.Answer
	extend  func(order.Answer) (order.Answer, bool)
}

// Total returns |Q(I)|.
func (la *Lex) Total() int64 { return la.total }

// BuildLex constructs the direct-access structure for q over in, ordered
// by the (possibly partial) lexicographic order l. It fails with
// *IntractableError when (q, l) is on the intractable side of
// Theorem 4.1. Preprocessing runs in O(n log n).
func BuildLex(q *cq.Query, in *database.Instance, l order.Lex) (*Lex, error) {
	return BuildLexCtx(context.Background(), q, in, l)
}

// BuildLexCtx is BuildLex with cancellation: the O(n log n)
// preprocessing checks ctx at every bucketize wave boundary and returns
// ctx.Err() instead of finishing a build whose requester already gave
// up. Cancellation granularity is one wave unit (a layer's bucketize),
// never mid-layer; the reduction runs inside those waves, and only the
// linear top-down prune after the last wave runs past the last check.
func BuildLexCtx(ctx context.Context, q *cq.Query, in *database.Instance, l order.Lex) (*Lex, error) {
	if v, _ := classify.DirectAccessLex(q, l, nil); !v.Tractable {
		return nil, &IntractableError{Verdict: v}
	}
	return buildLayered(ctx, q, in, l)
}

// buildLayered builds the structure assuming tractability was already
// established (on q itself or on an FD-extension).
func buildLayered(ctx context.Context, q *cq.Query, in *database.Instance, l order.Lex) (*Lex, error) {
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		return nil, err
	}
	la := &Lex{Query: q, numVars: q.NumVars()}

	if q.IsBoolean() {
		la.boolean = true
		la.boolTrue = booleanTrue(full)
		if la.boolTrue {
			la.total = 1
		}
		la.Completed = order.Lex{}
		return la, nil
	}

	completed, err := completeOrder(full, l)
	if err != nil {
		return nil, err
	}
	la.Completed = completed

	lb := &lexBuild{Lex: la}
	if err := lb.buildTree(full, completed); err != nil {
		return nil, err
	}
	if err := lb.computeWeights(ctx); err != nil {
		return nil, err
	}
	return la, nil
}

// lexBuild is one build's scaffolding, released when the build returns.
// Per layer it holds the layer relation (columns keyVars..., v), the
// index from a key tuple to its bucket id and the plan gathering that
// key from a parent tuple (see keyFrom): what bucketize needs to fill
// childOf, and no probe reads.
type lexBuild struct {
	*Lex
	rels     []*database.Relation
	bucketOf []*tupleidx.Index
	keyFrom  [][]int
}

// booleanTrue evaluates a Boolean full query: true iff the join of the
// (already consistent-by-construction?) nodes is non-empty. The nodes of
// a Boolean reduction have no variables, so the join is non-empty iff
// every node relation is non-empty.
func booleanTrue(full *reduce.Full) bool {
	for _, n := range full.Nodes {
		if n.Rel.Len() == 0 {
			return false
		}
	}
	return true
}

// completeOrder extends a partial order to all free variables with no
// disruptive trio (Lemma 4.4), preserving requested directions and
// defaulting appended variables to ascending.
func completeOrder(full *reduce.Full, l order.Lex) (order.Lex, error) {
	h := full.Hypergraph()
	prefix := make([]int, len(l.Entries))
	dirs := make(map[cq.VarID]order.Direction, len(l.Entries))
	for i, e := range l.Entries {
		prefix[i] = int(e.Var)
		dirs[e.Var] = e.Dir
	}
	var all hypergraph.VSet
	for _, v := range full.FreeVars() {
		all |= hypergraph.Bit(int(v))
	}
	ids, ok := h.CompleteOrder(prefix, all)
	if !ok {
		return order.Lex{}, fmt.Errorf("access: internal: no trio-free completion exists despite tractable classification")
	}
	out := order.Lex{Entries: make([]order.LexEntry, len(ids))}
	for i, id := range ids {
		v := cq.VarID(id)
		out.Entries[i] = order.LexEntry{Var: v, Dir: dirs[v]}
	}
	return out, nil
}

// buildTree realizes Lemma 3.9: one layer per completed-order position,
// each layer's node being the maximal prefix-restricted hyperedge
// containing the layer variable, attached to an earlier layer containing
// its key variables. It then materializes every layer's relation as a
// set (columns keyVars..., v) filtered by every full node, which
// computeWeights sorts and makes globally consistent.
func (lb *lexBuild) buildTree(full *reduce.Full, completed order.Lex) error {
	la := lb.Lex
	f := len(completed.Entries)
	nodeSets := make([]hypergraph.VSet, len(full.Nodes))
	for i, n := range full.Nodes {
		nodeSets[i] = n.VarSet()
	}
	lexPos := make(map[cq.VarID]int, f)
	for i, e := range completed.Entries {
		lexPos[e.Var] = i
	}

	var prefix hypergraph.VSet
	layerSets := make([]hypergraph.VSet, 0, f)
	srcNode := make([]int, 0, f) // per layer, the reduce.Full node it projects
	for i := 0; i < f; i++ {
		entry := completed.Entries[i]
		vi := int(entry.Var)
		prefix |= hypergraph.Bit(vi)

		// Candidate prefix-restricted hyperedges containing v_i, and the
		// maximal one among them (exists by the absence of trios).
		best := hypergraph.VSet(0)
		bestNode := -1
		for idx, s := range nodeSets {
			if !hypergraph.Has(s, vi) {
				continue
			}
			cand := s & prefix
			if hypergraph.Subset(best, cand) {
				best = cand
				bestNode = idx
			}
		}
		if bestNode < 0 {
			return fmt.Errorf("access: internal: free variable %s in no node", la.Query.VarName(entry.Var))
		}
		// Verify maximality (the Helly argument of Lemma 3.9 guarantees
		// it; check defensively).
		for _, s := range nodeSets {
			if hypergraph.Has(s, vi) && !hypergraph.Subset(s&prefix, best) {
				return fmt.Errorf("access: internal: no maximal layer hyperedge at %s (trio slipped through?)",
					la.Query.VarName(entry.Var))
			}
		}

		// Parent: earliest previous layer containing best \ {v_i}.
		parent := -1
		need := best &^ hypergraph.Bit(vi)
		for j := 0; j < i; j++ {
			if hypergraph.Subset(need, layerSets[j]) {
				parent = j
				break
			}
		}
		if i > 0 && parent < 0 {
			return fmt.Errorf("access: internal: no parent layer for %s", la.Query.VarName(entry.Var))
		}

		// Key variables: best minus v_i, ordered by lexicographic position.
		var keyVars []cq.VarID
		for _, u := range hypergraph.Members(need) {
			keyVars = append(keyVars, cq.VarID(u))
		}
		sort.Slice(keyVars, func(a, b int) bool { return lexPos[keyVars[a]] < lexPos[keyVars[b]] })

		la.layers = append(la.layers, layer{
			v: entry.Var, dir: entry.Dir, keyVars: keyVars, parent: parent,
		})
		srcNode = append(srcNode, bestNode)
		layerSets = append(layerSets, best)
		if parent >= 0 {
			la.layers[parent].children = append(la.layers[parent].children, i)
		}
	}

	// Inclusion equivalence: every full node must fit inside some layer.
	for idx, s := range nodeSets {
		found := false
		for _, ls := range layerSets {
			if hypergraph.Subset(s, ls) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("access: internal: node %d not covered by any layer", idx)
		}
	}

	// Materialize layer relations: project the source node, then enforce
	// every full node's constraint on some covering layer. FreeReduce's
	// nodes are sets, so a layer holding every variable of its source
	// node is a column permutation of it: already a set and already
	// filtered by that node. Only a proper projection can repeat tuples.
	whole := func(i int) bool { return layerSets[i] == nodeSets[srcNode[i]] }
	lb.rels = make([]*database.Relation, f)
	// Each layer projects its own source node — independent units, fanned
	// out over bounded workers. A whole layer whose columns are already
	// the node's, in order, is the node's relation itself: FreeReduce
	// made it for this build alone, at most one layer holds every
	// variable of a node, and nothing reads the node after buildTree, so
	// bucketize may sort it in place. Any other layer is a fresh copy.
	par.Do(f, func(i int) {
		ly := &la.layers[i]
		src := full.Nodes[srcNode[i]]
		cols := make([]int, 0, len(ly.keyVars)+1)
		for _, u := range ly.keyVars {
			cols = append(cols, src.Col(u))
		}
		cols = append(cols, src.Col(ly.v))
		inOrder := true
		for c, x := range cols {
			inOrder = inOrder && c == x
		}
		switch {
		case !whole(i):
			lb.rels[i] = src.Rel.ProjectDistinct(cols)
		case inOrder:
			lb.rels[i] = src.Rel
		default:
			lb.rels[i] = src.Rel.Project(cols)
		}
	})
nodes:
	for idx, n := range full.Nodes {
		for i := range la.layers {
			if srcNode[i] == idx && whole(i) {
				continue nodes
			}
		}
		// Pick the first covering layer and semijoin it with the node.
		for i := range la.layers {
			if hypergraph.Subset(nodeSets[idx], layerSets[i]) {
				lCols, nCols := la.layerCols(i, n)
				lb.rels[i] = lb.rels[i].Semijoin(lCols, n.Rel, nCols)
				break
			}
		}
	}

	lb.keyFrom = make([][]int, f)
	for i := 1; i < f; i++ {
		from, err := keyFrom(&la.layers[la.layers[i].parent], &la.layers[i])
		if err != nil {
			return fmt.Errorf("access: internal: layer %d: %w", i, err)
		}
		lb.keyFrom[i] = from
	}
	return nil
}

// keyFrom is the plan gathering a child layer's key from a tuple of its
// parent without searching: entry j is the parent key column holding the
// child's j-th key value, or -1 when that value is the parent tuple's
// own (the child key variable is the parent's layer variable).
func keyFrom(parent, child *layer) ([]int, error) {
	from := make([]int, len(child.keyVars))
key:
	for j, u := range child.keyVars {
		from[j] = -1
		if u == parent.v {
			continue
		}
		for c, pu := range parent.keyVars {
			if pu == u {
				from[j] = c
				continue key
			}
		}
		return nil, fmt.Errorf("key variable %d not available from the parent layer", u)
	}
	return from, nil
}

// layerCols aligns the columns of layer i's relation (keyVars..., v)
// with the columns of node n for n's variables (n's vars must all be
// inside the layer).
func (la *Lex) layerCols(i int, n *reduce.Node) (layerCols, nodeCols []int) {
	ly := &la.layers[i]
	pos := map[cq.VarID]int{ly.v: len(ly.keyVars)}
	for c, u := range ly.keyVars {
		pos[u] = c
	}
	for c, u := range n.Vars {
		layerCols = append(layerCols, pos[u])
		nodeCols = append(nodeCols, c)
	}
	return
}
