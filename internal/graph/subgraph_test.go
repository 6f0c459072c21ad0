package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// addArcLoop is the reference Subgraph must reproduce: an empty graph
// extended with AddArc for every positive-capacity arc, in order.
func addArcLoop(n int, arcs []Arc, caps []int) *Graph {
	g := New(n)
	for i, a := range arcs {
		if caps[i] > 0 {
			if err := g.AddArc(a.From, a.To, caps[i]); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// sameGraph reports whether a and b agree on every observable: arc count,
// sorted arcs, per-vertex Out/In order and their arc IDs, and the
// capacities by ID.
func sameGraph(a, b *Graph) bool {
	if a.N() != b.N() || a.NumArcs() != b.NumArcs() ||
		!slices.Equal(a.Arcs(), b.Arcs()) ||
		!slices.Equal(a.CapsByID(), b.CapsByID()) {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if !slices.Equal(a.Out(v), b.Out(v)) || !slices.Equal(a.In(v), b.In(v)) ||
			!slices.Equal(a.OutArcIDs(v), b.OutArcIDs(v)) ||
			!slices.Equal(a.InArcIDs(v), b.InArcIDs(v)) {
			return false
		}
	}
	return true
}

// scanArcID is the brute-force lookup: a linear scan of u's out-arcs.
func scanArcID(g *Graph, u, v int) (id, capacity int) {
	if u < 0 || u >= g.N() {
		return -1, 0
	}
	for i, a := range g.Out(u) {
		if a.To == v {
			return int(g.OutArcIDs(u)[i]), a.Cap
		}
	}
	return -1, 0
}

// lookupMatchesScan checks ArcID, Cap and HasArc against scanArcID for
// every ordered pair, out-of-range endpoints included.
func lookupMatchesScan(g *Graph) bool {
	for u := -1; u <= g.N(); u++ {
		for v := -1; v <= g.N(); v++ {
			id, c := scanArcID(g, u, v)
			if g.ArcID(u, v) != id || g.Cap(u, v) != c || g.HasArc(u, v) != (id >= 0) {
				return false
			}
		}
	}
	return true
}

func TestQuickSubgraphMatchesAddArcLoop(t *testing.T) {
	f := func(specs []arcSpec, capSeeds []int8) bool {
		const n = 12
		base, _ := buildFromSpecs(n, specs)
		arcs := base.Arcs()
		caps := make([]int, len(arcs))
		for i := range caps {
			// Zero and negative capacities drop the arc.
			caps[i] = 3
			if len(capSeeds) > 0 {
				caps[i] = int(capSeeds[i%len(capSeeds)]) % 4
			}
		}
		sub := Subgraph(n, arcs, caps)
		ref := addArcLoop(n, arcs, caps)
		if !sameGraph(sub, ref) || !lookupMatchesScan(sub) {
			return false
		}
		// The built graph stays extendable: AddArc grows its exact-size
		// storage without clobbering a neighbouring vertex's arcs.
		for _, a := range arcs {
			if err := sub.AddArc(a.To, a.From, 1); err != nil {
				return false
			}
			if err := ref.AddArc(a.To, a.From, 1); err != nil {
				return false
			}
		}
		return sameGraph(sub, ref) && lookupMatchesScan(sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickLookupMatchesScan(t *testing.T) {
	f := func(specs []arcSpec) bool {
		// Few vertices and many specs: multi-arcs merge often.
		g, ref := buildFromSpecs(7, specs)
		for key, c := range ref {
			if g.Cap(key[0], key[1]) != c {
				return false
			}
		}
		return lookupMatchesScan(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCloneMatchesSubgraph(t *testing.T) {
	g := randomGraph(60, 3)
	arcs := g.Arcs()
	caps := make([]int, len(arcs))
	for i, a := range arcs {
		caps[i] = a.Cap
	}
	if !sameGraph(g.Clone(), addArcLoop(g.N(), arcs, caps)) {
		t.Error("Clone differs from the AddArc loop over Arcs()")
	}
}

func TestStarHubLookup(t *testing.T) {
	const n = 1000
	g := starGraph(n)
	if g.OutDegree(0) != n-1 || g.InDegree(0) != n-1 {
		t.Fatalf("hub degrees %d/%d, want %d", g.OutDegree(0), g.InDegree(0), n-1)
	}
	if !lookupMatchesScan(g) {
		t.Fatal("star lookups disagree with the adjacency scan")
	}
	// Out keeps insertion order, not head order.
	if got := g.Out(0)[0].To; got != n-1 {
		t.Errorf("hub's first out-arc goes to %d, want %d (insertion order)", got, n-1)
	}
}

func TestLookupAbsentAndOutOfRange(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"empty", New(0)},
		{"addarc", starGraph(5)},
		{"subgraph", starGraph(5).Clone()},
	} {
		name, g := c.name, c.g
		n := g.N()
		for _, p := range [][2]int{{-1, 0}, {0, -1}, {n, 0}, {0, n}, {-5, n + 5}, {1, 2}, {3, 3}} {
			if id, c, ok := g.ArcID(p[0], p[1]), g.Cap(p[0], p[1]), g.HasArc(p[0], p[1]); id != -1 || c != 0 || ok {
				t.Errorf("%s: (%d,%d) gave ArcID %d, Cap %d, HasArc %v; want -1, 0, false", name, p[0], p[1], id, c, ok)
			}
		}
	}
}

// starGraph is a star on n vertices: hub 0 linked both ways to every
// leaf, the leaves inserted in descending order so the hub's adjacency is
// not already head-sorted.
func starGraph(n int) *Graph {
	g := New(n)
	for v := n - 1; v >= 1; v-- {
		if err := g.AddEdge(0, v, 1+v%3); err != nil {
			panic(err)
		}
	}
	return g
}

// randomGraph is a symmetric G(n, 2·ln n/n) graph with capacities in
// [1, 3], the shape of the paper's random topologies.
func randomGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	p := 2 * math.Log(float64(n)) / float64(n)
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if err := g.AddEdge(u, v, 1+rng.Intn(3)); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// BenchmarkArcID measures one point lookup, the kernel's admission check
// per proposed move: every arc of a random n=500 graph in turn, and every
// spoke from the hub of an n=1000 star.
func BenchmarkArcID(b *testing.B) {
	star := starGraph(1000)
	var spokes []Arc
	for v := 1; v < 1000; v++ {
		spokes = append(spokes, Arc{From: 0, To: v})
	}
	random := randomGraph(500, 1)
	for _, c := range []struct {
		name string
		g    *Graph
		arcs []Arc
	}{
		{"random-n500", random, random.Arcs()},
		{"star-hub-n1000", star, spokes},
	} {
		b.Run(c.name, func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				a := c.arcs[i%len(c.arcs)]
				sum += c.g.ArcID(a.From, a.To)
			}
			if sum < 0 {
				b.Fatal("absent arc")
			}
		})
	}
}

// benchSink keeps benchmarked results alive.
var benchSink *Graph

// BenchmarkSubgraph builds the positive-capacity view of a base graph, as
// the fault and dynamic engines do on every step whose capacities change,
// with the one-pass builder and with the AddArc loop it replaced.
func BenchmarkSubgraph(b *testing.B) {
	for _, n := range []int{12, 500} {
		base := randomGraph(n, 1)
		arcs := base.Arcs()
		caps := make([]int, len(arcs))
		for i, a := range arcs {
			if i%5 != 0 {
				caps[i] = a.Cap
			}
		}
		for _, c := range []struct {
			name  string
			build func(int, []Arc, []int) *Graph
		}{
			{"builder", Subgraph},
			{"addarc-loop", addArcLoop},
		} {
			b.Run(fmt.Sprintf("%s-n%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = c.build(n, arcs, caps)
				}
			})
		}
	}
}
