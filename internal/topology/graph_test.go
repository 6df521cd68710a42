package topology

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestPositionDist(t *testing.T) {
	a := Position{0, 0}
	b := Position{3, 4}
	if d := a.Dist(b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Fatalf("Dist to self = %v, want 0", d)
	}
}

func TestAddEdgeAndQueries(t *testing.T) {
	g := NewGraph(make([]Position, 4))
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge (0,2)")
	}
	if g.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d, want 3", g.EdgeCount())
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func mustEdge(t *testing.T, g *Graph, a, b NodeID) {
	t.Helper()
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", a, b, err)
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := NewGraph(make([]Position, 2))
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := NewGraph(make([]Position, 2))
	mustEdge(t, g, 0, 1)
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("reversed duplicate edge accepted")
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := NewGraph(make([]Position, 2))
	if err := g.AddEdge(0, 5); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative node edge accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewGraph(make([]Position, 5))
	mustEdge(t, g, 2, 4)
	mustEdge(t, g, 2, 0)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 2, 1)
	nb := g.Neighbors(2)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
}

func TestConnected(t *testing.T) {
	g := NewGraph(make([]Position, 4))
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	if g.Connected() {
		t.Fatal("graph with isolated node 3 reported connected")
	}
	mustEdge(t, g, 2, 3)
	if !g.Connected() {
		t.Fatal("connected path graph reported disconnected")
	}
}

func TestConnectedEmptyAndSingle(t *testing.T) {
	if !NewGraph(nil).Connected() {
		t.Fatal("empty graph should be trivially connected")
	}
	if !NewGraph(make([]Position, 1)).Connected() {
		t.Fatal("single-node graph should be connected")
	}
}

func TestReachableFrom(t *testing.T) {
	g := NewGraph(make([]Position, 5))
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 3, 4)
	r := g.ReachableFrom(0)
	if len(r) != 3 {
		t.Fatalf("ReachableFrom(0) = %v, want 3 nodes", r)
	}
	if r[0] != 0 {
		t.Fatalf("BFS order should start at the start node, got %v", r)
	}
}

func TestRemoveNodeEdges(t *testing.T) {
	g := NewGraph(make([]Position, 4))
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 1, 3)
	g.RemoveNodeEdges(1)
	if g.Degree(1) != 0 {
		t.Fatalf("dead node still has %d edges", g.Degree(1))
	}
	if g.HasEdge(0, 1) || g.HasEdge(2, 1) || g.HasEdge(3, 1) {
		t.Fatal("neighbors still see edges to the removed node")
	}
	if g.EdgeCount() != 0 {
		t.Fatalf("EdgeCount = %d, want 0", g.EdgeCount())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := NewGraph(make([]Position, 3))
	mustEdge(t, g, 0, 1)
	c := g.Clone()
	mustEdge(t, c, 1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating the clone changed the original")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("clone lost an edge")
	}
}

func TestConnectUnitDisk(t *testing.T) {
	pos := []Position{{0, 0}, {1, 0}, {2.5, 0}, {10, 10}}
	g := NewGraph(pos)
	g.ConnectUnitDisk(1.6)
	if !g.HasEdge(0, 1) {
		t.Fatal("nodes 1 apart not connected with range 1.6")
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("nodes 1.5 apart not connected with range 1.6")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("nodes 2.5 apart connected with range 1.6")
	}
	if g.Degree(3) != 0 {
		t.Fatal("far node gained edges")
	}
}

func TestPlaceRandomConnected(t *testing.T) {
	rng := sim.NewRNG(1)
	for seed := 0; seed < 5; seed++ {
		g, err := PlaceRandom(DefaultPlacement(), rng.StreamN("place", seed))
		if err != nil {
			t.Fatalf("PlaceRandom: %v", err)
		}
		if g.Len() != 50 {
			t.Fatalf("node count %d, want 50", g.Len())
		}
		if !g.Connected() {
			t.Fatal("PlaceRandom returned a disconnected graph")
		}
	}
}

func TestPlaceRandomDeterministic(t *testing.T) {
	a, err := PlaceRandom(DefaultPlacement(), sim.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlaceRandom(DefaultPlacement(), sim.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.Pos(NodeID(i)) != b.Pos(NodeID(i)) {
			t.Fatalf("node %d placed differently for identical seeds", i)
		}
	}
	if a.EdgeCount() != b.EdgeCount() {
		t.Fatal("edge sets differ for identical seeds")
	}
}

func TestPlaceRandomValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := PlaceRandom(PlacementConfig{N: 0, Width: 10, Height: 10, RadioRange: 5}, rng); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := PlaceRandom(PlacementConfig{N: 5, Width: -1, Height: 10, RadioRange: 5}, rng); err == nil {
		t.Fatal("negative width accepted")
	}
	if _, err := PlaceRandom(PlacementConfig{N: 5, Width: 10, Height: 10, RadioRange: 0}, rng); err == nil {
		t.Fatal("zero radio range accepted")
	}
}

func TestPlaceRandomSparseRangeStillTerminates(t *testing.T) {
	// Tiny radio range forces the range-growing fallback.
	cfg := PlacementConfig{N: 20, Width: 100, Height: 100, RadioRange: 1, MaxAttempts: 2}
	g, err := PlaceRandom(cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("fallback still produced a disconnected graph")
	}
}

func TestPlaceGrid(t *testing.T) {
	g, err := PlaceGrid(4, 10, 10.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 16 {
		t.Fatalf("grid node count %d, want 16", g.Len())
	}
	if !g.Connected() {
		t.Fatal("grid disconnected")
	}
	// Interior node has 4 neighbors with range just over spacing.
	if d := g.Degree(5); d != 4 {
		t.Fatalf("interior grid degree %d, want 4", d)
	}
}

func TestPlaceGridErrors(t *testing.T) {
	if _, err := PlaceGrid(0, 1, 1); err == nil {
		t.Fatal("grid n=0 accepted")
	}
	if _, err := PlaceGrid(3, 10, 5); err == nil {
		t.Fatal("disconnected grid (range < spacing) accepted")
	}
}

func TestPlaceLine(t *testing.T) {
	g, err := PlaceLine(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 9 {
		t.Fatalf("line edges %d, want 9", g.EdgeCount())
	}
	if g.Degree(0) != 1 || g.Degree(5) != 2 {
		t.Fatal("line degrees wrong")
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if !r.Valid() {
		t.Fatal("valid rect rejected")
	}
	if (Rect{MinX: 5, MaxX: 1}).Valid() {
		t.Fatal("inverted rect accepted")
	}
	if !r.Contains(Position{5, 5}) || !r.Contains(Position{0, 10}) {
		t.Fatal("Contains broken on interior/boundary")
	}
	if r.Contains(Position{11, 5}) || r.Contains(Position{5, -1}) {
		t.Fatal("Contains accepts exterior")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{5, 5, 15, 15}, true},
		{Rect{10, 10, 20, 20}, true}, // touching corner
		{Rect{11, 0, 20, 10}, false},
		{Rect{0, 11, 10, 20}, false},
		{Rect{2, 2, 3, 3}, true}, // contained
	}
	for _, c := range cases {
		if a.Intersects(c.b) != c.want || c.b.Intersects(a) != c.want {
			t.Fatalf("Intersects(%v, %v) != %v", a, c.b, c.want)
		}
	}
}

func TestRectUnionAndAround(t *testing.T) {
	a := RectAround(Position{3, 4})
	if a.MinX != 3 || a.MaxY != 4 {
		t.Fatalf("RectAround %+v", a)
	}
	u := a.Union(RectAround(Position{-1, 10}))
	want := Rect{MinX: -1, MinY: 4, MaxX: 3, MaxY: 10}
	if u != want {
		t.Fatalf("Union = %+v, want %+v", u, want)
	}
	if u.String() == "" {
		t.Fatal("empty String")
	}
}

// TestConnectUnitDiskMatchesBruteForce pins the grid-bucket
// implementation to the all-pairs definition across random layouts.
func TestConnectUnitDiskMatchesBruteForce(t *testing.T) {
	for _, seed := range []uint64{3, 17, 2026} {
		rng := sim.NewRNG(seed)
		const n = 300
		pos := make([]Position, n)
		for i := range pos {
			pos[i] = Position{X: rng.Range(0, 150), Y: rng.Range(0, 150)}
		}
		for _, r := range []float64{5, 22, 80} {
			fast := NewGraph(pos)
			fast.ConnectUnitDisk(r)
			slow := NewGraph(pos)
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if slow.pos[a].Dist(slow.pos[b]) <= r {
						if err := slow.AddEdge(NodeID(a), NodeID(b)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if !reflect.DeepEqual(fast.adj, slow.adj) {
				t.Fatalf("seed %d r=%v: grid-bucket adjacency differs from brute force", seed, r)
			}
		}
	}
}
