// Package shard turns the single-structure reproduction into a
// horizontally partitioned engine: a database instance is hash-split
// into P shards on one free variable of the query, per-shard direct
// access structures are built in parallel, and global ranked access is
// answered by merging per-shard answer counts — no shard ever
// materializes more than its own slice of the answer space.
//
// Partitioning scheme. A partition variable v (free in the query) is
// fixed; every relation whose atom contains v is split by the hash of
// the tuple's v-column, and every other relation is replicated to all
// shards by reference (relations are immutable during builds, so
// replication is free). Each answer a therefore lives in exactly the
// shard ShardOf(a[v], P): atoms containing v force all of a's witnesses
// into that shard, and no other shard can assemble them. Self-joins are
// rejected — one relation serving two atoms could need to be both split
// and replicated — which matches the paper's self-join-free scope.
//
// Global rank merge. Shard answer sets partition Q(I), and every shard
// orders its local answers by the same total order, so the global rank
// of an answer x is the sum over shards of "answers strictly below x"
// — exactly what each structure's Rank query returns in O(log n).
// Access(k) binary-searches the global rank against these per-shard
// counts (see Handle.locate), finding the global k-th answer in
// O(P log n) rank probes per halving step with no materialization.
package shard

import (
	"fmt"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/par"
	"rankedaccess/internal/values"
)

// MaxShards bounds the shard count: merge scratch is O(P) per probe and
// the gain of splitting past the core count is negative.
const MaxShards = 64

// UnshardableError reports that a query cannot be partitioned (rather
// than that a request was malformed): callers are expected to fall back
// to a single structure and surface the reason as a note.
type UnshardableError struct{ Reason string }

func (e *UnshardableError) Error() string { return "shard: " + e.Reason }

// Partitioning fixes how an instance is split: the shard count and the
// partition variable. Together with the query it determines the shard
// of every answer, so it is part of a cached accessor's identity.
type Partitioning struct {
	// P is the shard count (≥ 1).
	P int
	// Var is the partition variable (free in the query).
	Var cq.VarID
	// VarName is Var's name in the query, for keys and diagnostics.
	VarName string
}

// ShardOf maps a partition-variable value to its shard: a splitmix64
// finalizer over the value, reduced mod p. Exported so tests and tools
// can predict tuple placement.
func ShardOf(v values.Value, p int) int {
	x := uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(p))
}

// Choose picks the partitioning for a query: the named free variable
// when by is non-empty, otherwise the free variable contained in the
// most atoms (splitting more relations and replicating fewer), ties to
// the smallest variable id so the choice is deterministic.
//
// A *UnshardableError means the query itself cannot be partitioned
// (Boolean, or with self-joins); any other error is a bad request (an
// explicit by that is not a free variable, or a bad shard count).
func Choose(q *cq.Query, by string, p int) (Partitioning, error) {
	if p < 1 || p > MaxShards {
		return Partitioning{}, fmt.Errorf("shard: shard count %d outside [1, %d]", p, MaxShards)
	}
	if q.IsBoolean() {
		return Partitioning{}, &UnshardableError{Reason: "boolean query has no free variable to partition on"}
	}
	if !q.IsSelfJoinFree() {
		return Partitioning{}, &UnshardableError{Reason: "query has self-joins; one relation cannot be both split and replicated"}
	}
	if by != "" {
		if err := ValidateBy(q, by); err != nil {
			return Partitioning{}, err
		}
		id, _ := q.VarByName(by)
		return Partitioning{P: p, Var: id, VarName: by}, nil
	}
	best, bestCount := cq.VarID(-1), -1
	for _, v := range q.Head {
		count := 0
		for i := range q.Atoms {
			if atomHasVar(&q.Atoms[i], v) {
				count++
			}
		}
		if count > bestCount || (count == bestCount && v < best) {
			best, bestCount = v, count
		}
	}
	if best < 0 {
		return Partitioning{}, &UnshardableError{Reason: "no free variable to partition on"}
	}
	return Partitioning{P: p, Var: best, VarName: q.VarName(best)}, nil
}

// ValidateBy checks that an explicit partition variable names a free
// variable of the query — the single definition of that requirement,
// shared by Choose and by callers that pre-validate requests before
// attempting (and possibly falling back from) a sharded build.
func ValidateBy(q *cq.Query, by string) error {
	id, ok := q.VarByName(by)
	if !ok || !isFree(q, id) {
		return fmt.Errorf("shard: partition variable %q is not a free variable of the query", by)
	}
	return nil
}

func isFree(q *cq.Query, v cq.VarID) bool {
	for _, h := range q.Head {
		if h == v {
			return true
		}
	}
	return false
}

func atomHasVar(at *cq.Atom, v cq.VarID) bool {
	for _, u := range at.Vars {
		if u == v {
			return true
		}
	}
	return false
}

// Split partitions the relations the query references into shard
// instances, indexed by shard: relations whose atom contains the
// partition variable are hash-split on that column, the rest are
// shared by reference (the caller must not mutate them while shard
// structures are live). Only the owned shards are materialized (none
// named = all pt.P of them; the other entries stay nil), so a node in
// a P-way cluster holding one shard pays 1/P of the split memory:
// tuples hashing to non-owned shards are simply skipped. The value
// dictionary is shared. Relations absent from the instance stay absent
// from every shard. Per-relation splitting fans out over the bounded
// worker pool.
func Split(q *cq.Query, in *database.Instance, pt Partitioning, owned ...int) []*database.Instance {
	outs := make([]*database.Instance, pt.P)
	if owned == nil {
		owned, _ = ownedShards(pt, nil)
	}
	for _, s := range owned {
		outs[s] = database.NewInstance()
		outs[s].Dict = in.Dict
	}
	tasks := splitTasks(q, pt)
	split := make([][]*database.Relation, len(tasks))
	par.Do(len(tasks), func(ti int) {
		t := tasks[ti]
		r := in.Relation(t.name)
		if r == nil {
			return
		}
		rels := make([]*database.Relation, pt.P)
		split[ti] = rels
		// Degenerate partitioning (P = 1): every tuple hashes to shard
		// 0, so the single shard IS the original instance. Share each
		// relation by reference instead of copying — the resulting
		// structure is then exactly the unsharded one, built over the
		// same storage.
		if t.col < 0 || pt.P == 1 {
			for _, s := range owned {
				rels[s] = r
			}
			return
		}
		for _, s := range owned {
			rels[s] = database.NewRelation(r.Arity())
		}
		n := r.Len()
		for i := 0; i < n; i++ {
			tu := r.Tuple(i)
			if dst := rels[ShardOf(tu[t.col], pt.P)]; dst != nil {
				dst.Append(tu...)
			}
		}
	})
	for ti, t := range tasks {
		if split[ti] == nil {
			continue
		}
		for _, s := range owned {
			outs[s].SetRelation(t.name, split[ti][s])
		}
	}
	return outs
}

// splitTask is one relation's splitting assignment: the column holding
// the partition variable, or -1 to replicate by reference.
type splitTask struct {
	name string
	col  int
}

// splitTasks derives the per-relation splitting plan from the query.
func splitTasks(q *cq.Query, pt Partitioning) []splitTask {
	var tasks []splitTask
	seen := make(map[string]bool, len(q.Atoms))
	for i := range q.Atoms {
		at := &q.Atoms[i]
		if seen[at.Rel] {
			continue // identical duplicate atom (Choose rejected true self-joins)
		}
		seen[at.Rel] = true
		col := -1
		for c, u := range at.Vars {
			if u == pt.Var {
				col = c
				break
			}
		}
		tasks = append(tasks, splitTask{name: at.Rel, col: col})
	}
	return tasks
}
