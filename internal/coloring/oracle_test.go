package coloring

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// The map-based DSATUR and RLF below are the implementations the slice-
// based ones replaced, kept verbatim as oracles: the rewrite must return
// identical assignments, since BBB's recodings and maximum code depend
// on every tie-break.

func oracleNodes(adj Adjacency) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(adj))
	for id := range adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func dsaturOracle(adj Adjacency) toca.Assignment {
	n := len(adj)
	a := make(toca.Assignment, n)
	satSets := make(map[graph.NodeID]toca.ColorSet, n)
	ids := oracleNodes(adj)
	for _, id := range ids {
		satSets[id] = toca.NewColorSet()
	}
	for done := 0; done < n; done++ {
		var pick graph.NodeID
		bestSat, bestDeg := -1, -1
		for _, id := range ids {
			if a[id] != toca.None {
				continue
			}
			sat, deg := satSets[id].Len(), len(adj[id])
			if sat > bestSat || (sat == bestSat && deg > bestDeg) {
				bestSat, bestDeg, pick = sat, deg, id
			}
		}
		c := satSets[pick].LowestFree()
		a[pick] = c
		for _, v := range adj[pick] {
			if a[v] == toca.None {
				satSets[v].Add(c)
			}
		}
	}
	return a
}

func rlfOracle(adj Adjacency) toca.Assignment {
	n := len(adj)
	a := make(toca.Assignment, n)
	uncolored := make(map[graph.NodeID]struct{}, n)
	for id := range adj {
		uncolored[id] = struct{}{}
	}
	neighbors := func(id graph.NodeID, in map[graph.NodeID]struct{}) int {
		count := 0
		for _, v := range adj[id] {
			if _, ok := in[v]; ok {
				count++
			}
		}
		return count
	}
	removeWithNeighbors := func(set map[graph.NodeID]struct{}, id graph.NodeID) {
		delete(set, id)
		for _, v := range adj[id] {
			delete(set, v)
		}
	}
	sortedIDs := oracleNodes(adj)
	for c := toca.Color(1); len(uncolored) > 0; c++ {
		candidates := make(map[graph.NodeID]struct{}, len(uncolored))
		for id := range uncolored {
			candidates[id] = struct{}{}
		}
		var seed graph.NodeID
		bestDeg := -1
		for _, id := range sortedIDs {
			if _, ok := candidates[id]; !ok {
				continue
			}
			if d := neighbors(id, uncolored); d > bestDeg {
				bestDeg = d
				seed = id
			}
		}
		class := []graph.NodeID{seed}
		removeWithNeighbors(candidates, seed)
		for len(candidates) > 0 {
			var pick graph.NodeID
			bestOut, bestIn := -1, 1<<30
			for _, id := range sortedIDs {
				if _, ok := candidates[id]; !ok {
					continue
				}
				out := len(adj[id]) - neighbors(id, candidates)
				in := neighbors(id, candidates)
				if out > bestOut || (out == bestOut && in < bestIn) {
					bestOut, bestIn, pick = out, in, id
				}
			}
			class = append(class, pick)
			removeWithNeighbors(candidates, pick)
		}
		for _, id := range class {
			a[id] = c
			delete(uncolored, id)
		}
	}
	return a
}

// tiedGraph returns a random graph rich in degree ties, on sparse,
// shuffled node IDs (so position order and ID order are tested apart
// from 0..n-1): a disjoint union of cliques and cycles (every vertex of
// a part has the same degree), optionally overlaid with a few random
// edges.
func tiedGraph(rng *xrand.RNG) Adjacency {
	n := 2 + rng.Intn(40)
	ids := make([]graph.NodeID, n)
	for i, v := range rng.Perm(4 * n)[:n] {
		ids[i] = graph.NodeID(v)
	}
	edges := map[[2]graph.NodeID]bool{}
	link := func(i, j int) {
		if i != j {
			u, v := ids[i], ids[j]
			if u > v {
				u, v = v, u
			}
			edges[[2]graph.NodeID{u, v}] = true
		}
	}
	for start := 0; start < n; {
		size := 1 + rng.Intn(6)
		if start+size > n {
			size = n - start
		}
		clique := rng.Bool()
		for i := 0; i < size; i++ {
			if clique {
				for j := i + 1; j < size; j++ {
					link(start+i, start+j)
				}
			} else if size > 2 {
				link(start+i, start+(i+1)%size)
			}
		}
		start += size
	}
	for k := rng.Intn(4); k > 0; k-- {
		link(rng.Intn(n), rng.Intn(n))
	}
	adj := make(Adjacency, n)
	for _, id := range ids {
		adj[id] = nil
	}
	for e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, id := range ids {
		sort.Slice(adj[id], func(i, j int) bool { return adj[id][i] < adj[id][j] })
	}
	return adj
}

// TestColorersMatchOracles: on 600 random graphs — half tie-rich unions
// of cliques and cycles, half G(n, p) — DSATUR and RLF return exactly
// the pre-rewrite assignments.
func TestColorersMatchOracles(t *testing.T) {
	rng := xrand.New(2024)
	for i := 0; i < 600; i++ {
		var adj Adjacency
		if i%2 == 0 {
			adj = tiedGraph(rng)
		} else {
			adj = randomAdjacency(rng.Uint64(), 1+rng.Intn(40), rng.Uniform(0.05, 0.6))
		}
		if got, want := DSATUR(adj), dsaturOracle(adj); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: DSATUR = %v, oracle %v", i, got, want)
		}
		if got, want := RLF(adj), rlfOracle(adj); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: RLF = %v, oracle %v", i, got, want)
		}
	}
}

// TestColorersOnNetworkView: on random ad-hoc networks, coloring the
// network's in-place conflict view gives the same assignment as
// coloring toca.ConflictGraph's Adjacency, and both match the oracles.
// Half the networks build their index before the events, so the view is
// the incrementally maintained one.
func TestColorersOnNetworkView(t *testing.T) {
	rng := xrand.New(77)
	for i := 0; i < 40; i++ {
		net := adhoc.New()
		if i%2 == 0 {
			net.ConflictGraph()
		}
		for id := graph.NodeID(0); id < 60; id++ {
			cfg := adhoc.Config{Pos: geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)}, Range: rng.Uniform(20.5, 30.5)}
			if err := net.Join(id, cfg); err != nil {
				t.Fatal(err)
			}
		}
		for id := graph.NodeID(0); id < 60; id += graph.NodeID(1 + rng.Intn(6)) {
			if err := net.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
		adj := Adjacency(toca.ConflictGraph(net.Graph()))
		view := net.ConflictGraph()
		for _, c := range []struct {
			name   string
			color  func(Graph) toca.Assignment
			oracle func(Adjacency) toca.Assignment
		}{{"DSATUR", DSATUR, dsaturOracle}, {"RLF", RLF, rlfOracle}} {
			want := c.oracle(adj)
			if got := c.color(adj); !reflect.DeepEqual(got, want) {
				t.Fatalf("network %d: %s on Adjacency differs from the oracle", i, c.name)
			}
			if got := c.color(view); !reflect.DeepEqual(got, want) {
				t.Fatalf("network %d: %s on the network view differs from the oracle", i, c.name)
			}
		}
	}
}
