package rankedaccess

import "testing"

// The facade Engine is the internal engine re-exported; this exercises
// the wiring end to end: plan, cache, probe, mutate, re-plan.
func TestFacadeEngine(t *testing.T) {
	in := NewInstance()
	in.AddRow("R", 1, 5)
	in.AddRow("R", 1, 2)
	in.AddRow("S", 5, 3)
	in.AddRow("S", 2, 5)
	e := NewEngine(in, EngineOptions{})

	spec := EngineSpec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	h, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 2 {
		t.Fatalf("total = %d, want 2", h.Total())
	}
	a, err := h.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	if tup := h.HeadTuple(a); tup[0] != 1 || tup[1] != 2 || tup[2] != 5 {
		t.Fatalf("first answer = %v, want [1 2 5]", tup)
	}
	h2, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatal("facade engine did not cache")
	}
	if err := e.AddRows("S", [][]Value{{5, 9}}); err != nil {
		t.Fatal(err)
	}
	h3, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h3.Total() != 3 {
		t.Fatalf("total after mutation = %d, want 3", h3.Total())
	}
}

// TestFacadeEngineSharded: sharded specs flow through the facade, and a
// local engine ignores the shard count: it serves the bare spec's
// handle.
func TestFacadeEngineSharded(t *testing.T) {
	in := NewInstance()
	for i := int64(0); i < 64; i++ {
		in.AddRow("R", i%13, i%7)
		in.AddRow("S", i%7, i%11)
	}
	e := NewEngine(in, EngineOptions{})
	base := EngineSpec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "y desc, x, z"}
	single, err := e.Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 4
	h, err := e.Prepare(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if h != single || h.Plan.Shards != 0 {
		t.Fatalf("plan = %+v, want the bare spec's unsharded handle", h.Plan)
	}
}
