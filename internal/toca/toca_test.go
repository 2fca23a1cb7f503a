package toca

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// starGraph returns a digraph where nodes 1..k all transmit to node 0.
func starGraph(k int) *graph.Digraph {
	g := graph.New()
	g.AddNode(0)
	for i := 1; i <= k; i++ {
		g.AddNode(graph.NodeID(i))
		g.AddEdge(graph.NodeID(i), 0)
	}
	return g
}

func TestVerifyCA1(t *testing.T) {
	g := graph.New()
	g.AddNode(1)
	g.AddNode(2)
	g.AddEdge(1, 2)
	a := Assignment{1: 5, 2: 5}
	vs := Verify(g, a)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	v := vs[0]
	if v.Kind != Primary || v.U != 1 || v.V != 2 || v.Color != 5 {
		t.Fatalf("violation = %+v", v)
	}
	a[2] = 6
	if !Valid(g, a) {
		t.Fatal("distinct colors still flagged")
	}
}

func TestVerifyCA2(t *testing.T) {
	g := starGraph(3)
	a := Assignment{0: 1, 1: 2, 2: 2, 3: 3}
	vs := Verify(g, a)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	v := vs[0]
	if v.Kind != Hidden || v.At != 0 || v.Color != 2 {
		t.Fatalf("violation = %+v", v)
	}
	if v.U != 1 || v.V != 2 {
		t.Fatalf("violating pair = %d,%d", v.U, v.V)
	}
}

func TestVerifyUnassignedSilent(t *testing.T) {
	g := starGraph(2)
	// Node 2 unassigned: no violations even though node 1 shares "None".
	a := Assignment{0: 1, 1: 2}
	if !Valid(g, a) {
		t.Fatalf("unassigned node caused violations: %v", Verify(g, a))
	}
}

func TestViolationStrings(t *testing.T) {
	p := Violation{Kind: Primary, U: 1, V: 2, At: 2, Color: 3}
	if p.String() != "CA1: edge 1->2 both color 3" {
		t.Fatalf("Primary string = %q", p.String())
	}
	h := Violation{Kind: Hidden, U: 1, V: 2, At: 9, Color: 4}
	if h.String() != "CA2: in-neighbors 1,2 of 9 both color 4" {
		t.Fatalf("Hidden string = %q", h.String())
	}
	if Primary.String() != "CA1" || Hidden.String() != "CA2" {
		t.Fatal("kind strings wrong")
	}
	if ViolationKind(9).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

func TestConflictNeighbors(t *testing.T) {
	// 1 -> 3 <- 2, plus 4 -> 1.
	g := graph.New()
	for i := 1; i <= 4; i++ {
		g.AddNode(graph.NodeID(i))
	}
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(4, 1)
	got := ConflictNeighborsSorted(g, 1)
	// 3 via CA1 (out-neighbor), 2 via CA2 (co-transmitter at 3), 4 via
	// CA1 (in-neighbor).
	want := []graph.NodeID{2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ConflictNeighbors(1) = %v, want %v", got, want)
	}
	// Node 3 only hears; its conflicts are its in-neighbors by CA1.
	got = ConflictNeighborsSorted(g, 3)
	want = []graph.NodeID{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ConflictNeighbors(3) = %v, want %v", got, want)
	}
}

func TestConflictNeighborsSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomDigraph(seed, 12, 30)
		for _, u := range g.Nodes() {
			for v := range ConflictNeighbors(g, u) {
				if _, ok := ConflictNeighbors(g, v)[u]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// containsID reports whether the sorted list s holds id.
func containsID(s []graph.NodeID, id graph.NodeID) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

func TestConflictGraphSymmetricAndComplete(t *testing.T) {
	g := randomDigraph(99, 15, 40)
	adj := ConflictGraph(g)
	if len(adj) != g.NumNodes() {
		t.Fatalf("conflict graph has %d vertices, want %d", len(adj), g.NumNodes())
	}
	for u, nbrs := range adj {
		for _, v := range nbrs {
			if !containsID(adj[v], u) {
				t.Fatalf("conflict graph asymmetric at %d~%d", u, v)
			}
			if u == v {
				t.Fatalf("self loop at %d", u)
			}
		}
	}
	// Every CA1/CA2 pair must be an edge of the conflict graph.
	for _, u := range g.Nodes() {
		for v := range ConflictNeighbors(g, u) {
			if !containsID(adj[u], v) {
				t.Fatalf("conflict pair %d~%d missing", u, v)
			}
		}
	}
}

// TestConflictGraphColoringEquivalence: an assignment is CA1/CA2-valid
// iff it is a proper coloring of the conflict graph.
func TestConflictGraphColoringEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := randomDigraph(rng.Uint64(), 10, 25)
		adj := ConflictGraph(g)
		a := make(Assignment)
		for _, id := range g.Nodes() {
			a[id] = Color(1 + rng.Intn(4))
		}
		valid := Valid(g, a)
		proper := true
		for u, nbrs := range adj {
			for _, v := range nbrs {
				if a[u] == a[v] {
					proper = false
				}
			}
		}
		return valid == proper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestForbidden(t *testing.T) {
	g := starGraph(3) // 1,2,3 -> 0
	a := Assignment{0: 7, 1: 1, 2: 2, 3: 3}
	tl := NewTally(g, a)
	s := NewForbiddenScratch()
	// Node 1's constraints: 0 (CA1 out-neighbor), 2 and 3 (CA2).
	forb := Forbidden(s, tl, 1)
	want := []Color{2, 3, 7}
	if !reflect.DeepEqual(forb.Sorted(), want) {
		t.Fatalf("Forbidden = %v, want %v", forb.Sorted(), want)
	}
	// Lifting node 2 drops its color from the constraints.
	tl.Lift([]graph.NodeID{2})
	forb = Forbidden(s, tl, 1)
	want = []Color{3, 7}
	if !reflect.DeepEqual(forb.Sorted(), want) {
		t.Fatalf("Forbidden(2 lifted) = %v, want %v", forb.Sorted(), want)
	}
	if tl.Assignment()[2] != 2 || tl.Max() != 7 {
		t.Fatal("Lift touched the map or the maximum")
	}
	tl.Set(2, 2) // ends the lift
	if got := Forbidden(s, tl, 1).Sorted(); !reflect.DeepEqual(got, []Color{2, 3, 7}) {
		t.Fatalf("Forbidden after Set = %v", got)
	}
}

// forbiddenOracle is the reference constraint walk, reading the
// assignment map for every visited node: the colors u may not take,
// ignoring the nodes of exclude (nil excludes nothing).
func forbiddenOracle(g *graph.Digraph, a Assignment, u graph.NodeID, exclude map[graph.NodeID]struct{}) ColorSet {
	set := NewColorSet()
	add := func(v graph.NodeID) {
		if _, skip := exclude[v]; !skip {
			set.Add(a[v])
		}
	}
	g.ForEachOut(u, func(v graph.NodeID) {
		add(v)
		g.ForEachIn(v, func(x graph.NodeID) {
			if x != u {
				add(x)
			}
		})
	})
	g.ForEachIn(u, add)
	return set
}

// churn makes some nodes of g leave and rejoin with fresh edges, writing
// tl the way the strategies do (a leaver's color is cleared only after
// it left the digraph, a rejoiner may be colored or not), so later walks
// run over reused slots.
func churn(rng *xrand.RNG, g *graph.Digraph, tl *Tally) {
	nodes := g.Nodes()
	for k := rng.Intn(4); k > 0; k-- {
		id := nodes[rng.Intn(len(nodes))]
		g.RemoveNode(id)
		tl.Set(id, None)
		g.AddNode(id)
		for e := rng.Intn(6); e > 0; e-- {
			v := nodes[rng.Intn(len(nodes))]
			if v != id && g.HasNode(v) {
				if rng.Intn(2) == 0 {
					g.AddEdge(id, v)
				} else {
					g.AddEdge(v, id)
				}
			}
		}
		if rng.Intn(2) == 0 {
			tl.Set(id, Color(1+rng.Intn(5)))
		}
	}
}

// TestForbiddenAllDifferential: on random graphs with slot reuse, the
// shared-receiver one-pass walk over lifted slot colors produces EXACTLY
// the per-member sets of the map-reading oracle with an exclude map, and
// Forbidden those of the oracle with no exclusion — the recoders swap
// one for the other, and their outcomes must stay bit-identical. One
// scratch serves all trials, as one recoder's does across events, so
// state left over from an earlier call fails the comparison.
func TestForbiddenAllDifferential(t *testing.T) {
	rng := xrand.New(23)
	scratch := NewForbiddenScratch()
	for trial := 0; trial < 200; trial++ {
		g := randomDigraph(rng.Uint64(), 2+rng.Intn(14), rng.Intn(60))
		nodes := g.Nodes()
		a := make(Assignment)
		for _, id := range nodes {
			if rng.Float64() < 0.8 {
				a[id] = Color(1 + rng.Intn(5))
			}
		}
		tl := NewTally(g, a)
		churn(rng, g, tl)
		for _, u := range nodes {
			want := forbiddenOracle(g, a, u, nil)
			if got := Forbidden(scratch, tl, u); !reflect.DeepEqual(got.Sorted(), want.Sorted()) {
				t.Fatalf("trial %d node %d: Forbidden %v, want %v", trial, u, got.Sorted(), want.Sorted())
			}
		}
		var v1 []graph.NodeID
		excl := make(map[graph.NodeID]struct{})
		for _, id := range nodes {
			if rng.Float64() < 0.4 {
				v1 = append(v1, id)
				excl[id] = struct{}{}
			}
		}
		tl.Lift(v1) // ForbiddenAll's precondition
		all := ForbiddenAll(scratch, tl, v1)
		if len(all) != len(v1) {
			t.Fatalf("trial %d: ForbiddenAll returned %d sets for %d members", trial, len(all), len(v1))
		}
		for i, u := range v1 {
			want := forbiddenOracle(g, a, u, excl)
			got := all[i]
			if !reflect.DeepEqual(got.Sorted(), want.Sorted()) {
				t.Fatalf("trial %d node %d: ForbiddenAll %v, want %v",
					trial, u, got.Sorted(), want.Sorted())
			}
			if got.Len() != want.Len() || got.Max() != want.Max() || got.LowestFree() != want.LowestFree() {
				t.Fatalf("trial %d node %d: set stats diverge: %d/%d/%d vs %d/%d/%d",
					trial, u, got.Len(), got.Max(), got.LowestFree(),
					want.Len(), want.Max(), want.LowestFree())
			}
		}
	}
}

// TestColorSetUnionWith: word growth, count/max bookkeeping, overlap.
func TestColorSetUnionWith(t *testing.T) {
	s := NewColorSet()
	s.Add(1)
	s.Add(3)
	o := NewColorSet()
	o.Add(3)   // overlap: must not double-count
	o.Add(70)  // second word: s must grow
	o.Add(130) // third word
	s.UnionWith(o)
	if got := s.Sorted(); !reflect.DeepEqual(got, []Color{1, 3, 70, 130}) {
		t.Fatalf("Sorted = %v", got)
	}
	if s.Len() != 4 || s.Max() != 130 {
		t.Fatalf("Len/Max = %d/%d, want 4/130", s.Len(), s.Max())
	}
	s.UnionWith(NewColorSet()) // empty o: no-op
	s.UnionWith(ColorSet{})    // zero-value o: no-op
	if s.Len() != 4 {
		t.Fatalf("Len after empty unions = %d", s.Len())
	}
}

// TestColorSetForEach: ForEach visits exactly Sorted's colors in order.
func TestColorSetForEach(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 50; trial++ {
		s := NewColorSet()
		for i := 0; i < rng.Intn(30); i++ {
			s.Add(Color(1 + rng.Intn(200)))
		}
		got := make([]Color, 0, s.Len())
		s.ForEach(func(c Color) { got = append(got, c) })
		if !reflect.DeepEqual(got, s.Sorted()) {
			t.Fatalf("trial %d: ForEach %v, Sorted %v", trial, got, s.Sorted())
		}
	}
	(ColorSet{}).ForEach(func(Color) { t.Fatal("zero-value set visited a color") })
}

func TestColorSet(t *testing.T) {
	s := NewColorSet()
	s.Add(None) // ignored
	s.Add(3)
	s.Add(1)
	s.Add(3) // dup
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Has(1) || s.Has(2) {
		t.Fatal("Has wrong")
	}
	if s.Max() != 3 {
		t.Fatalf("Max = %d", s.Max())
	}
	if got := s.Sorted(); !reflect.DeepEqual(got, []Color{1, 3}) {
		t.Fatalf("Sorted = %v", got)
	}
	if s.LowestFree() != 2 {
		t.Fatalf("LowestFree = %d", s.LowestFree())
	}
	s.Add(2)
	if s.LowestFree() != 4 {
		t.Fatalf("LowestFree = %d", s.LowestFree())
	}
	if (ColorSet{}).Max() != None {
		t.Fatal("empty Max != None")
	}
	if (ColorSet{}).LowestFree() != 1 {
		t.Fatal("empty LowestFree != 1")
	}
	// Word-boundary behavior: a fully packed first word rolls LowestFree
	// into the second.
	full := NewColorSet()
	for c := Color(1); c <= 64; c++ {
		full.Add(c)
	}
	if full.LowestFree() != 65 {
		t.Fatalf("packed LowestFree = %d, want 65", full.LowestFree())
	}
	full.Add(66)
	if full.LowestFree() != 65 {
		t.Fatalf("LowestFree with gap = %d, want 65", full.LowestFree())
	}
	if full.Max() != 66 || full.Len() != 65 {
		t.Fatalf("Max/Len = %d/%d, want 66/65", full.Max(), full.Len())
	}
	if got := full.Sorted(); got[len(got)-1] != 66 || len(got) != 65 {
		t.Fatalf("Sorted tail = %v", got[len(got)-5:])
	}
	// Clear keeps the set usable.
	full.Clear()
	if full.Len() != 0 || full.Max() != None || full.LowestFree() != 1 {
		t.Fatal("Clear did not empty the set")
	}
	full.Add(2)
	if !full.Has(2) || full.Has(1) {
		t.Fatal("post-Clear Add broken")
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := Assignment{1: 2, 2: 2, 3: 5}
	if a.MaxColor() != 5 {
		t.Fatalf("MaxColor = %d", a.MaxColor())
	}
	if (Assignment{}).MaxColor() != None {
		t.Fatal("empty MaxColor != None")
	}
	counts := a.ColorCounts()
	if counts[2] != 2 || counts[5] != 1 || len(counts) != 2 {
		t.Fatalf("ColorCounts = %v", counts)
	}
	c := a.Clone()
	c[1] = 9
	if a[1] != 2 {
		t.Fatal("Clone aliased")
	}
}

// DiffCount returns the paper's "number of recodings" between two
// snapshots: the number of nodes in after whose color differs from their
// color in before, where a node absent from before counts as None. A node
// receiving its first color therefore counts as one recoding (the paper
// counts the joiner), while nodes that left the network do not.
func DiffCount(before, after Assignment) int {
	n := 0
	for id, c := range after {
		if before[id] != c {
			n++
		}
	}
	return n
}

func TestDiffCount(t *testing.T) {
	before := Assignment{1: 1, 2: 2, 3: 3}
	after := Assignment{1: 1, 2: 9, 4: 4}
	// 2 changed, 4 is new (counts), 3 left (does not count), 1 same.
	if got := DiffCount(before, after); got != 2 {
		t.Fatalf("DiffCount = %d, want 2", got)
	}
	if got := DiffCount(nil, Assignment{7: 1}); got != 1 {
		t.Fatalf("DiffCount from nil = %d, want 1", got)
	}
	if got := DiffCount(before, nil); got != 0 {
		t.Fatalf("DiffCount to nil = %d, want 0", got)
	}
}

func TestVerifyDeterministic(t *testing.T) {
	g := randomDigraph(5, 10, 30)
	a := make(Assignment)
	for _, id := range g.Nodes() {
		a[id] = 1 // everything collides
	}
	v1 := Verify(g, a)
	v2 := Verify(g, a)
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("Verify not deterministic")
	}
	if len(v1) == 0 {
		t.Fatal("all-same coloring reported no violations")
	}
}

// randomDigraph builds a random digraph with n nodes and ~m edge draws.
func randomDigraph(seed uint64, n, m int) *graph.Digraph {
	rng := xrand.New(seed)
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	for e := 0; e < m; e++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Sorted returns the set's colors ascending.
func (s ColorSet) Sorted() []Color {
	if s.b == nil {
		return nil
	}
	out := make([]Color, 0, s.b.n)
	for w, word := range s.b.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, Color(w<<6+bits.TrailingZeros64(word)+1))
		}
	}
	return out
}

// ColorCounts returns, for each color in use, the number of nodes holding
// it. Unassigned nodes are skipped.
func (a Assignment) ColorCounts() map[Color]int {
	counts := make(map[Color]int)
	for _, c := range a {
		if c != None {
			counts[c]++
		}
	}
	return counts
}
