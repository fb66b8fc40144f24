// Package workload generates the synthetic queries and databases used by
// the benchmark harness and the examples: path queries with controllable
// join fan-out and skew, the introduction's epidemic join, the
// Cartesian-product queries of §2.5/§5, and the 3SUM-style constructions
// of Lemmas 5.7/5.8 that witness the hardness side of Figure 8.
package workload

import (
	"math"
	"math/rand"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// Zipf draws values in [0, n) with the given skew (s = 0 degenerates to
// uniform). A thin wrapper over math/rand's bounded Zipf generator.
type Zipf struct {
	z   *rand.Zipf
	rng *rand.Rand
	n   int64
}

// NewZipf builds a sampler over [0, n) with exponent s ≥ 0.
func NewZipf(rng *rand.Rand, n int64, s float64) *Zipf {
	if s <= 0 {
		return &Zipf{rng: rng, n: n}
	}
	// rand.NewZipf requires s > 1; squash (0, 1] into a mild skew.
	if s <= 1 {
		s = 1.0001 + s/4
	}
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1)), rng: rng, n: n}
}

// Draw samples one value.
func (z *Zipf) Draw() values.Value {
	if z.z == nil {
		return values.Value(z.rng.Int63n(z.n))
	}
	return values.Value(z.z.Uint64())
}

// TwoPath generates the 2-path query Q(x, y, z) :- R(x, y), S(y, z) with
// n tuples per relation over a join domain of size dom for y and value
// domains of size dom for x and z, with Zipf skew on the join attribute.
func TwoPath(rng *rand.Rand, n, dom int, skew float64) (*cq.Query, *database.Instance) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	in := database.NewInstance()
	zy := NewZipf(rng, int64(dom), skew)
	for i := 0; i < n; i++ {
		in.AddRow("R", values.Value(rng.Int63n(int64(dom))), zy.Draw())
		in.AddRow("S", zy.Draw(), values.Value(rng.Int63n(int64(dom))))
	}
	return q, in
}

// Geometric generates the 2-path query Q(x, y, z) :- R(x, y), S(y, z)
// on an instance built so that, under the order x, y, z, a search
// starting where a bucket's endpoints predict its target starts far
// from it. Two x values each hold levels y values whose z fan-outs are
// 1, 2, 4, …, 2^(levels−1): rising under x = 0, falling under x = 1.
// Ten more x values hold one answer each. In every bucket the values
// run small and then jump to near math.MaxInt64: the last x, the last y
// under each geometric x, and the last z under every y. There are
// 2^(levels+1) + 8 answers.
func Geometric(levels int) (*cq.Query, *database.Instance) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	in := database.NewInstance()
	const top = values.Value(math.MaxInt64)
	fanOut := func(y values.Value, f int) {
		for z := 0; z < f-1; z++ {
			in.AddRow("S", y, values.Value(z))
		}
		in.AddRow("S", y, top)
	}
	for x := values.Value(0); x < 2; x++ {
		for j := 0; j < levels; j++ {
			y := x*values.Value(levels) + values.Value(j)
			if j == levels-1 {
				y = top - 1 - x
			}
			in.AddRow("R", x, y)
			if x == 0 {
				fanOut(y, 1<<j)
			} else {
				fanOut(y, 1<<(levels-1-j))
			}
		}
	}
	for _, x := range []values.Value{2, 3, 4, 5, 6, 7, 8, 9, 10, top - 1} {
		in.AddRow("R", x, top-3)
	}
	fanOut(top-3, 1)
	return q, in
}

// KPath generates the k-path query
// Q(x0, ..., xk) :- R1(x0, x1), ..., Rk(x(k-1), xk), full head, with n
// tuples per relation.
func KPath(rng *rand.Rand, k, n, dom int, skew float64) (*cq.Query, *database.Instance) {
	q := cq.NewQuery("Q")
	varName := func(i int) string { return "x" + itoa(i) }
	head := make([]string, k+1)
	for i := 0; i <= k; i++ {
		head[i] = varName(i)
	}
	for i := 1; i <= k; i++ {
		q.AddAtom("R"+itoa(i), varName(i-1), varName(i))
	}
	q.SetHead(head...)
	in := database.NewInstance()
	z := NewZipf(rng, int64(dom), skew)
	for i := 1; i <= k; i++ {
		for t := 0; t < n; t++ {
			in.AddRow("R"+itoa(i), z.Draw(), z.Draw())
		}
	}
	return q, in
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// Epidemic generates the introduction's Visits ⋈ Cases scenario:
//
//	Q(person, age, city, date, cases) :-
//	    Visits(person, age, city), Cases(city, date, cases)
//
// with nVisits visit rows over nPeople people and nCities cities, and
// nCases case reports. Ages are 1..100, case counts 0..maxCases.
func Epidemic(rng *rand.Rand, nVisits, nCases, nPeople, nCities, maxCases int) (*cq.Query, *database.Instance) {
	q := cq.MustParse("Q(person, age, city, date, cases) :- Visits(person, age, city), Cases(city, date, cases)")
	in := database.NewInstance()
	age := make(map[values.Value]values.Value, nPeople)
	for i := 0; i < nVisits; i++ {
		p := values.Value(rng.Int63n(int64(nPeople)))
		if _, ok := age[p]; !ok {
			age[p] = values.Value(1 + rng.Int63n(100))
		}
		in.AddRow("Visits", p, age[p], values.Value(rng.Int63n(int64(nCities))))
	}
	for i := 0; i < nCases; i++ {
		in.AddRow("Cases",
			values.Value(rng.Int63n(int64(nCities))),
			values.Value(20200101+rng.Int63n(365)),
			values.Value(rng.Int63n(int64(maxCases+1))))
	}
	return q, in
}

// EpidemicUniqueCity is the Epidemic workload restricted so that each
// city occurs at most once in Cases — the integrity constraint under
// which the introduction's order (#cases, age, ...) becomes tractable
// (the FD Cases: city → date, cases).
func EpidemicUniqueCity(rng *rand.Rand, nVisits, nPeople, nCities, maxCases int) (*cq.Query, *database.Instance) {
	q, in := Epidemic(rng, nVisits, 0, nPeople, nCities, maxCases)
	for c := 0; c < nCities; c++ {
		in.AddRow("Cases",
			values.Value(c),
			values.Value(20200101+rng.Int63n(365)),
			values.Value(rng.Int63n(int64(maxCases+1))))
	}
	return q, in
}

// Product generates the Cartesian-product query Q(x, y) :- R(x), S(y)
// ("X + Y") with n tuples per side and weights equal to the values.
func Product(rng *rand.Rand, n int) (*cq.Query, *database.Instance, order.Sum) {
	q := cq.MustParse("Q(x, y) :- R(x), S(y)")
	in := database.NewInstance()
	seenR := map[values.Value]bool{}
	seenS := map[values.Value]bool{}
	for len(seenR) < n {
		v := values.Value(rng.Int63n(int64(n) * 10))
		if !seenR[v] {
			seenR[v] = true
			in.AddRow("R", v)
		}
	}
	for len(seenS) < n {
		v := values.Value(rng.Int63n(int64(n) * 10))
		if !seenS[v] {
			seenS[v] = true
			in.AddRow("S", v)
		}
	}
	return q, in, order.IdentitySum(q.Head...)
}

// ThreeSumInstance encodes a 3SUM instance (A, B, C) into a query and
// database per the reduction of Lemma 5.7. The paper's construction
// applies to any query with three independent free variables; the
// simplest carrier is the triple product Q(x, y, z) :- R(x), S(y), T(z).
// Values are indices 0..n-1; the weight of index i under x/y/z is
// A[i]/B[i]/C[i]. A zero-weight answer exists iff the 3SUM instance has a
// solution.
func ThreeSumInstance(a, b, c []float64) (*cq.Query, *database.Instance, order.Sum) {
	q := cq.MustParse("Q(x, y, z) :- R(x), S(y), T(z)")
	in := database.NewInstance()
	x, _ := q.VarByName("x")
	y, _ := q.VarByName("y")
	z, _ := q.VarByName("z")
	tx := map[values.Value]float64{}
	ty := map[values.Value]float64{}
	tz := map[values.Value]float64{}
	for i, v := range a {
		in.AddRow("R", values.Value(i))
		tx[values.Value(i)] = v
	}
	for i, v := range b {
		in.AddRow("S", values.Value(i))
		ty[values.Value(i)] = v
	}
	for i, v := range c {
		in.AddRow("T", values.Value(i))
		tz[values.Value(i)] = v
	}
	w := order.TableSum(map[cq.VarID]map[values.Value]float64{x: tx, y: ty, z: tz})
	return q, in, w
}

// Example53Instance builds the database of Example 5.3 for the 3-path
// query with projections: R = [1,n]×{0}, S = {0}×[1,n], T = [1,n]×{0},
// giving exactly the n² (x, z) weight combinations.
func Example53Instance(n int) (*cq.Query, *database.Instance, order.Sum) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z), T(z, u)")
	in := database.NewInstance()
	for i := 1; i <= n; i++ {
		in.AddRow("R", values.Value(i), 0)
		in.AddRow("S", 0, values.Value(i))
		in.AddRow("T", values.Value(i), 0)
	}
	x, _ := q.VarByName("x")
	z, _ := q.VarByName("z")
	return q, in, order.IdentitySum(x, z)
}

// Star generates a star query Q(c, l1, ..., lk) :- R1(c, l1), ...,
// Rk(c, lk) with n tuples per relation: every lexicographic order
// starting with c is tractable; SUM direct access is not (for k ≥ 2).
func Star(rng *rand.Rand, k, n, dom int) (*cq.Query, *database.Instance) {
	q := cq.NewQuery("Q")
	head := []string{"c"}
	for i := 1; i <= k; i++ {
		leaf := "l" + itoa(i)
		q.AddAtom("R"+itoa(i), "c", leaf)
		head = append(head, leaf)
	}
	q.SetHead(head...)
	in := database.NewInstance()
	for i := 1; i <= k; i++ {
		for t := 0; t < n; t++ {
			in.AddRow("R"+itoa(i), values.Value(rng.Int63n(int64(dom))), values.Value(rng.Int63n(int64(dom))))
		}
	}
	return q, in
}

// SingleAtomCover generates Q(x, y) :- R(x, y, u), S(y), full weights on
// x and y: the tractable class of Theorem 5.1 (one atom covers the free
// variables).
func SingleAtomCover(rng *rand.Rand, n, dom int) (*cq.Query, *database.Instance, order.Sum) {
	q := cq.MustParse("Q(x, y) :- R(x, y, u), S(y)")
	in := database.NewInstance()
	for i := 0; i < n; i++ {
		in.AddRow("R",
			values.Value(rng.Int63n(int64(dom))),
			values.Value(rng.Int63n(int64(dom))),
			values.Value(rng.Int63n(int64(dom))))
	}
	for d := 0; d < dom; d++ {
		if rng.Intn(2) == 0 {
			in.AddRow("S", values.Value(d))
		}
	}
	x, _ := q.VarByName("x")
	y, _ := q.VarByName("y")
	return q, in, order.IdentitySum(x, y)
}

// RandomThreeSum draws a 3SUM instance of size n with values spread over
// a large range (hard regime); plant a solution when plant is true.
func RandomThreeSum(rng *rand.Rand, n int, plant bool) (a, b, c []float64) {
	lim := int64(n) * int64(n) * 8
	a = make([]float64, n)
	b = make([]float64, n)
	c = make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(rng.Int63n(2*lim) - lim)
		b[i] = float64(rng.Int63n(2*lim) - lim)
		c[i] = float64(rng.Int63n(2*lim) - lim)
	}
	if plant && n > 0 {
		i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		c[k] = -(a[i] + b[j])
	}
	return a, b, c
}
