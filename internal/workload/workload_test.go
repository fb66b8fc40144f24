package workload

import (
	"math/rand"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/order"
	"rankedaccess/internal/selection"
)

func TestTwoPathShape(t *testing.T) {
	q, in := TwoPath(rand.New(rand.NewSource(1)), 100, 20, 0)
	if in.Relation("R").Len() != 100 || in.Relation("S").Len() != 100 {
		t.Fatalf("relation sizes: %d, %d", in.Relation("R").Len(), in.Relation("S").Len())
	}
	l, _ := order.ParseLex(q, "x, y, z")
	la, err := access.BuildLex(q, in, l)
	if err != nil {
		t.Fatal(err)
	}
	if la.Total() == 0 {
		t.Fatal("2-path workload produced no answers (join domain too sparse?)")
	}
}

func TestKPath(t *testing.T) {
	q, in := KPath(rand.New(rand.NewSource(2)), 3, 50, 8, 0.5)
	if len(q.Atoms) != 3 || len(q.Head) != 4 {
		t.Fatalf("query shape: %s", q.String())
	}
	if in.Size() != 150 {
		t.Fatalf("size = %d", in.Size())
	}
	l, _ := order.ParseLex(q, "x0, x1, x2, x3")
	if v, _ := classify.DirectAccessLex(q, l, nil); !v.Tractable {
		t.Fatalf("path order must be tractable: %v", v)
	}
}

func TestEpidemic(t *testing.T) {
	q, in := Epidemic(rand.New(rand.NewSource(3)), 200, 100, 50, 10, 500)
	if in.Relation("Visits").Len() != 200 || in.Relation("Cases").Len() != 100 {
		t.Fatal("epidemic sizes")
	}
	// Each person has a single age (sanity of the generator).
	ages := map[int64]int64{}
	v := in.Relation("Visits")
	for i := 0; i < v.Len(); i++ {
		tu := v.Tuple(i)
		if prev, ok := ages[tu[0]]; ok && prev != tu[1] {
			t.Fatal("person with two ages")
		}
		ages[tu[0]] = tu[1]
	}
	l, _ := order.ParseLex(q, "cases, city, age")
	if _, err := access.BuildLex(q, in, l); err != nil {
		t.Fatal(err)
	}
}

func TestEpidemicUniqueCity(t *testing.T) {
	_, in := EpidemicUniqueCity(rand.New(rand.NewSource(4)), 100, 30, 12, 300)
	seen := map[int64]bool{}
	c := in.Relation("Cases")
	for i := 0; i < c.Len(); i++ {
		city := c.Tuple(i)[0]
		if seen[city] {
			t.Fatal("city repeats in Cases")
		}
		seen[city] = true
	}
}

func TestProductSelection(t *testing.T) {
	q, in, w := Product(rand.New(rand.NewSource(5)), 30)
	// 30×30 product: selection by SUM must work (fmh = 2).
	a, err := selection.SelectSum(q, in, w, nil, 450) // median-ish
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("nil answer")
	}
}

func TestThreeSumInstance(t *testing.T) {
	a, b, c := RandomThreeSum(rand.New(rand.NewSource(6)), 20, true)
	q, in, w := ThreeSumInstance(a, b, c)
	if v, _ := classify.DirectAccessSum(q, nil); v.Tractable {
		t.Fatal("triple product must be DA-SUM intractable")
	}
	// Selection by SUM is also intractable (fmh = 3); verified by the
	// classifier.
	if v, _ := classify.SelectionSum(q, nil); v.Tractable {
		t.Fatal("triple product must be selection-SUM intractable")
	}
	_ = in
	_ = w
}

func TestExample53Instance(t *testing.T) {
	q, in, w := Example53Instance(5)
	// 25 answers with all (x, z) weight combinations.
	got := map[float64]bool{}
	for x := 1; x <= 5; x++ {
		for z := 1; z <= 5; z++ {
			got[float64(x+z)] = true
		}
	}
	// Selection by SUM is tractable here (fmh = 2 after projection of u).
	cnt := 0
	for k := int64(0); k < 25; k++ {
		a, err := selection.SelectSum(q, in, w, nil, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !got[w.AnswerWeight(q, a)] {
			t.Fatalf("unexpected weight %v", w.AnswerWeight(q, a))
		}
		cnt++
	}
	if cnt != 25 {
		t.Fatalf("selected %d answers", cnt)
	}
}

func TestStar(t *testing.T) {
	q, in := Star(rand.New(rand.NewSource(7)), 3, 40, 10)
	l, _ := order.ParseLex(q, "c, l1, l2, l3")
	if v, _ := classify.DirectAccessLex(q, l, nil); !v.Tractable {
		t.Fatalf("star with center-first order: %v", v)
	}
	// Leaf-first orders have a disruptive trio (l1, l2 via c).
	l2, _ := order.ParseLex(q, "l1, l2, c, l3")
	if v, _ := classify.DirectAccessLex(q, l2, nil); v.Tractable {
		t.Fatal("leaf-first star order must be intractable")
	}
	if v, _ := classify.DirectAccessSum(q, nil); v.Tractable {
		t.Fatal("star by SUM must be intractable")
	}
	_ = in
}

func TestSingleAtomCover(t *testing.T) {
	q, in, w := SingleAtomCover(rand.New(rand.NewSource(8)), 60, 10)
	sa, err := access.BuildSum(q, in, w)
	if err != nil {
		t.Fatal(err)
	}
	// Weights must be non-decreasing.
	var prev float64
	for k := int64(0); k < sa.Total(); k++ {
		wk, _ := sa.WeightAt(k)
		if k > 0 && wk < prev {
			t.Fatal("weights not sorted")
		}
		prev = wk
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	z := NewZipf(rng, 100, 2.0)
	counts := map[int64]int{}
	for i := 0; i < 5000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] < counts[50] {
		t.Fatal("zipf skew absent: rank 0 should dominate rank 50")
	}
	u := NewZipf(rng, 100, 0)
	seen := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		seen[u.Draw()] = true
	}
	if len(seen) < 80 {
		t.Fatalf("uniform sampler covered only %d values", len(seen))
	}
}

func TestGeometric(t *testing.T) {
	q, in := Geometric(6)
	l, _ := order.ParseLex(q, "x, y, z")
	la, err := access.BuildLex(q, in, l)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1<<7 + 8); la.Total() != want {
		t.Fatalf("%d answers, want %d", la.Total(), want)
	}
	// Under x = 0 the y buckets' weights rise 1, 2, 4, …; under x = 1
	// they fall.
	var w0, w1 []int64
	for _, d := range la.DumpLayer(1) {
		switch d.Key[0] {
		case 0:
			w0 = append(w0, d.Weight)
		case 1:
			w1 = append(w1, d.Weight)
		}
	}
	for j := range 6 {
		if w0[j] != 1<<j || w1[j] != 1<<(5-j) {
			t.Fatalf("y weights %v under x = 0 and %v under x = 1", w0, w1)
		}
	}
}
