// Package adhoc implements the power-controlled ad-hoc network model of
// the paper's section 2: each node has a position and a maximum
// transmission range, and the induced communication digraph contains the
// edge u -> v exactly when v lies within u's range.
//
// The Network maintains the induced digraph incrementally under the four
// reconfiguration events the paper studies — join, leave, move, and power
// (range) change — and computes the partition sets 1n/2n/3n/4n of Fig 2
// that the recoding strategies operate on.
//
// Since the engine refactor the spatial grid is on by default: New()
// returns a self-indexing network whose grid cell auto-sizes to the
// largest transmission range seen so far, so neighbor scans are local
// from the first join. NewScan() keeps the naive O(n) scan path alive as
// a fallback and as the differential-testing oracle the equivalence
// tests replay against.
//
// The CA1/CA2 conflict graph the centralized baseline recolors is kept
// as a refcounted index that every edge flip updates in place; it is
// built on the first ConflictGraph call, so networks that never ask for
// the whole conflict graph never pay for it.
package adhoc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/spatial"
	"repro/internal/toca"
)

// Config is a node's physical configuration: its position and maximum
// transmission power range.
type Config struct {
	Pos   geom.Point
	Range float64
}

// Covers reports whether a transmitter with configuration c reaches a
// receiver at position p (the paper's d_ij <= r_i test).
func (c Config) Covers(p geom.Point) bool {
	return c.Pos.DistanceSqTo(p) <= c.Range*c.Range
}

// gridGrowFactor bounds how far the monotone max range may outgrow the
// auto-sized grid cell before the grid is rebuilt with cell = maxRange.
// Queries stay correct at any ratio (the grid scans every overlapped
// cell); the rebuild only restores the at-most-9-cells locality.
const gridGrowFactor = 2.0

// Network is a dynamic power-controlled ad-hoc network: a set of node
// configurations plus the induced communication digraph.
//
// A uniform spatial grid accelerates the neighbor scans every event
// performs: candidate nodes come from cells within
// max(event range, largest range ever seen) of the event position rather
// than from the whole node set. Results are identical to the naive scan
// (the grid is a pure accelerator; equivalence is property-tested).
//
// Once ConflictGraph has been called, the network also maintains the
// conflict index: per-pair counts of CA1/CA2 conflict reasons, updated
// on every edge flip, that ConflictGraph exposes as a read-only view.
type Network struct {
	configs map[graph.NodeID]Config
	g       *graph.Digraph
	grid    *spatial.Grid // nil = naive O(n) scans (NewScan, or no positive range yet)
	// autoGrid makes the grid self-sizing: it is (re)built from maxRange
	// as ranges are first seen or outgrow the current cell.
	autoGrid bool
	// maxRange is a monotone upper bound on every range ever present;
	// it bounds how far an in-edge can originate, so grid queries with
	// this radius see every potential coverer. It never shrinks (a node
	// with a huge range leaving degrades query locality, not
	// correctness).
	maxRange float64
	// conf is the conflict index: conf[u][v] counts the reasons u and v
	// may not share a code, [u->v] + [v->u] + |out(u) ∩ out(v)|. It is
	// symmetric and stores no zero entries, so the keys of conf[u] are
	// exactly toca.ConflictNeighbors(g, u). It stays nil until the first
	// ConflictGraph call builds it; from then on addEdge and removeEdge
	// keep it current on every edge flip.
	conf map[graph.NodeID]map[graph.NodeID]int32
}

// New returns an empty network with the spatial grid enabled and
// self-sizing (the default since the engine refactor). The grid cell
// tracks the largest transmission range seen so far; until a positive
// range is noted the network scans naively.
func New() *Network {
	n := NewScan()
	n.autoGrid = true
	return n
}

// NewScan returns an empty network using naive O(n) neighbor scans. It
// is the fallback path and the oracle the grid is differentially tested
// against.
func NewScan() *Network {
	return &Network{
		configs: make(map[graph.NodeID]Config),
		g:       graph.New(),
	}
}

// NewIndexed returns an empty network whose neighbor scans use a uniform
// spatial grid with the given fixed cell size (a good choice is the
// expected maximum transmission range). It panics on a non-positive cell
// size — that is a programmer error, not a runtime condition.
func NewIndexed(cellSize float64) *Network {
	grid, err := spatial.NewGrid(cellSize)
	if err != nil {
		panic(fmt.Sprintf("adhoc: %v", err))
	}
	n := NewScan()
	n.grid = grid
	return n
}

// Indexed reports whether neighbor scans currently use the spatial grid.
func (n *Network) Indexed() bool { return n.grid != nil }

// candidates calls fn for every node other than id that could have an
// edge to or from a node at pos with the given range: with a grid, nodes
// within max(r, maxRange) of pos; without, every node.
func (n *Network) candidates(id graph.NodeID, pos geom.Point, r float64, fn func(graph.NodeID, Config)) {
	if n.grid == nil {
		for other, oc := range n.configs {
			if other != id {
				fn(other, oc)
			}
		}
		return
	}
	radius := r
	if n.maxRange > radius {
		radius = n.maxRange
	}
	n.grid.ForEachWithinRadius(pos, radius, func(other graph.NodeID, _ geom.Point) {
		if other != id {
			fn(other, n.configs[other])
		}
	})
}

// noteRange folds a new range into the monotone maximum and, in autoGrid
// mode, builds or rebuilds the grid when the maximum outgrows the cell.
// The comparison direction is NaN-robust: a NaN never overwrites the
// maximum (and the event methods reject non-finite ranges up front).
func (n *Network) noteRange(r float64) {
	if !(r > n.maxRange) {
		return
	}
	n.maxRange = r
	if !n.autoGrid || n.maxRange <= 0 {
		return
	}
	if n.grid == nil || n.maxRange > gridGrowFactor*n.grid.CellSize() {
		n.regrid(n.maxRange)
	}
}

// regrid rebuilds the grid with the given cell, re-inserting every
// current node. maxRange is monotone, so rebuilds happen O(log(maxR))
// times over a network's lifetime.
func (n *Network) regrid(cell float64) {
	grid, err := spatial.NewGrid(cell)
	if err != nil {
		return // invalid cell: keep the previous grid (or scan path) as is
	}
	for id, cfg := range n.configs {
		grid.Insert(id, cfg.Pos)
	}
	n.grid = grid
}

// Graph exposes the induced digraph. Callers must treat it as read-only;
// all mutation goes through the event methods so the graph stays
// consistent with the configurations.
func (n *Network) Graph() *graph.Digraph { return n.g }

// Size returns the number of nodes currently in the network.
func (n *Network) Size() int { return len(n.configs) }

// Has reports whether id is currently in the network.
func (n *Network) Has(id graph.NodeID) bool {
	_, ok := n.configs[id]
	return ok
}

// Config returns the configuration of id. The second result is false if
// id is not in the network.
func (n *Network) Config(id graph.NodeID) (Config, bool) {
	c, ok := n.configs[id]
	return c, ok
}

// Nodes returns all node IDs in ascending order.
func (n *Network) Nodes() []graph.NodeID { return n.g.Nodes() }

// MaxRange returns the monotone upper bound on every range ever present.
func (n *Network) MaxRange() float64 { return n.maxRange }

// Join adds a node with the given configuration and wires up its induced
// edges. It returns an error if the id is already present, the position
// is not finite, or the range is negative or not finite.
func (n *Network) Join(id graph.NodeID, cfg Config) error {
	if _, ok := n.configs[id]; ok {
		return fmt.Errorf("adhoc: node %d already in network", id)
	}
	if !finite(cfg.Pos) {
		return fmt.Errorf("adhoc: node %d has invalid position (%g, %g)", id, cfg.Pos.X, cfg.Pos.Y)
	}
	if cfg.Range < 0 || math.IsNaN(cfg.Range) || math.IsInf(cfg.Range, 0) {
		return fmt.Errorf("adhoc: node %d has invalid range %g", id, cfg.Range)
	}
	n.configs[id] = cfg
	n.g.AddNode(id)
	n.noteRange(cfg.Range)
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			n.addEdge(id, other)
		}
		if oc.Covers(cfg.Pos) {
			n.addEdge(other, id)
		}
	})
	if n.grid != nil {
		n.grid.Insert(id, cfg.Pos)
	}
	return nil
}

// Leave removes a node and all its incident edges. It returns an error if
// the id is absent.
func (n *Network) Leave(id graph.NodeID) error {
	if _, ok := n.configs[id]; !ok {
		return fmt.Errorf("adhoc: node %d not in network", id)
	}
	for _, v := range n.g.OutNeighbors(id) {
		n.removeEdge(id, v)
	}
	for _, u := range n.g.InNeighbors(id) {
		n.removeEdge(u, id)
	}
	delete(n.conf, id)
	delete(n.configs, id)
	n.g.RemoveNode(id)
	if n.grid != nil {
		n.grid.Remove(id)
	}
	return nil
}

// Move changes a node's position and rewires its incident edges in both
// directions (its own coverage changes, and other nodes may gain or lose
// coverage of it). It returns an error if the id is absent or the
// position is not finite.
func (n *Network) Move(id graph.NodeID, pos geom.Point) error {
	cfg, ok := n.configs[id]
	if !ok {
		return fmt.Errorf("adhoc: node %d not in network", id)
	}
	if !finite(pos) {
		return fmt.Errorf("adhoc: node %d moved to invalid position (%g, %g)", id, pos.X, pos.Y)
	}
	cfg.Pos = pos
	n.configs[id] = cfg
	if n.grid != nil {
		n.grid.Move(id, pos)
	}
	n.rewire(id)
	return nil
}

// finite reports whether both coordinates of p are finite.
func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// SetRange changes a node's maximum transmission range. Only the node's
// own out-edges are affected (in-edges depend on other nodes' ranges).
func (n *Network) SetRange(id graph.NodeID, r float64) error {
	cfg, ok := n.configs[id]
	if !ok {
		return fmt.Errorf("adhoc: node %d not in network", id)
	}
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("adhoc: node %d invalid range %g", id, r)
	}
	cfg.Range = r
	n.configs[id] = cfg
	n.noteRange(r)
	// Range change only alters id's coverage of others. Drop every
	// current out-edge beyond the new radius, then add newly covered
	// nodes from the candidate set.
	for _, other := range n.g.OutNeighbors(id) {
		if !cfg.Covers(n.configs[other].Pos) {
			n.removeEdge(id, other)
		}
	}
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			n.addEdge(id, other)
		}
	})
	return nil
}

// rewire recomputes all edges incident to id from the configurations:
// stale incident edges are checked directly, new ones come from the
// candidate set around the (new) position.
func (n *Network) rewire(id graph.NodeID) {
	cfg := n.configs[id]
	for _, other := range n.g.OutNeighbors(id) {
		if !cfg.Covers(n.configs[other].Pos) {
			n.removeEdge(id, other)
		}
	}
	for _, other := range n.g.InNeighbors(id) {
		if !n.configs[other].Covers(cfg.Pos) {
			n.removeEdge(other, id)
		}
	}
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			n.addEdge(id, other)
		}
		if oc.Covers(cfg.Pos) {
			n.addEdge(other, id)
		}
	})
}

// addEdge inserts u->v (a no-op if present). Every digraph edge
// insertion goes through it so a built conflict index stays current.
func (n *Network) addEdge(u, v graph.NodeID) {
	if n.conf != nil && !n.g.HasEdge(u, v) {
		n.flipConflicts(u, v, 1) // reads in(v) before u joins it
	}
	n.g.AddEdge(u, v)
}

// removeEdge deletes u->v (a no-op if absent). Every digraph edge
// deletion goes through it so a built conflict index stays current.
func (n *Network) removeEdge(u, v graph.NodeID) {
	flip := n.conf != nil && n.g.HasEdge(u, v)
	n.g.RemoveEdge(u, v)
	if flip {
		n.flipConflicts(u, v, -1) // reads in(v) after u left it
	}
}

// flipConflicts applies the index change of adding (d = 1) or removing
// (d = -1) the edge u->v while in(v) excludes u: the pair (u, v) gains or
// loses its CA1 reason, and u gains or loses the shared receiver v with
// every other transmitter x of v (CA2 at v).
func (n *Network) flipConflicts(u, v graph.NodeID, d int32) {
	n.bumpConflict(u, v, d)
	n.g.ForEachIn(v, func(x graph.NodeID) { n.bumpConflict(u, x, d) })
}

// bumpConflict adds d to the symmetric count of the pair (u, v),
// dropping the pair from both rows when it reaches zero.
func (n *Network) bumpConflict(u, v graph.NodeID, d int32) {
	n.bumpRow(u, v, d)
	n.bumpRow(v, u, d)
}

// bumpRow is the one-sided half of bumpConflict, on u's row.
func (n *Network) bumpRow(u, v graph.NodeID, d int32) {
	row := n.conf[u]
	if row == nil {
		row = make(map[graph.NodeID]int32)
		n.conf[u] = row
	}
	if c := row[v] + d; c != 0 {
		row[v] = c
	} else {
		delete(row, v)
	}
}

// ConflictNeighbors returns the CA1/CA2 conflict neighborhood of id,
// computed from the digraph (toca.ConflictNeighbors). The engine reads
// it around power raises and the distributed runtime around its
// protocol steps.
func (n *Network) ConflictNeighbors(id graph.NodeID) map[graph.NodeID]struct{} {
	return toca.ConflictNeighbors(n.g, id)
}

// ConflictView is a read-only view of a network's TOCA conflict graph:
// u ~ v iff u->v, v->u, or u and v share an out-neighbor. It reads the
// live conflict index, so each call reflects the network's current
// state; read it between events, never concurrently with one. It has
// the method set of coloring.Graph, which lets the centralized
// recoloring color it in place without copying it.
type ConflictView struct{ n *Network }

// Nodes returns every node, ascending (isolated nodes included).
func (v ConflictView) Nodes() []graph.NodeID { return v.n.g.Nodes() }

// Degree returns the number of conflict neighbors of id.
func (v ConflictView) Degree(id graph.NodeID) int { return len(v.n.conf[id]) }

// ForEachNeighbor calls fn once for every conflict neighbor of id, in
// unspecified order.
func (v ConflictView) ForEachNeighbor(id graph.NodeID, fn func(graph.NodeID)) {
	for u := range v.n.conf[id] {
		fn(u)
	}
}

// ConflictGraph returns the network's conflict graph. The first call
// builds the conflict index from the digraph; from then on every edge
// flip maintains it, so centralized recoloring (BBB) reads an up-to-date
// graph after each event instead of rebuilding one.
func (n *Network) ConflictGraph() ConflictView {
	if n.conf == nil {
		n.buildConflicts()
	}
	return ConflictView{n}
}

// buildConflicts counts every conflict reason of the current digraph:
// each edge u->w is a CA1 reason for (u, w), and each receiver w is a
// CA2 reason for every pair of its transmitters.
func (n *Network) buildConflicts() {
	n.conf = make(map[graph.NodeID]map[graph.NodeID]int32, n.g.NumNodes())
	for _, w := range n.g.Nodes() {
		ins := n.g.InNeighbors(w)
		for i, u := range ins {
			n.bumpConflict(u, w, 1)
			for _, x := range ins[i+1:] {
				n.bumpConflict(u, x, 1)
			}
		}
	}
}

// Partition is the paper's Fig 2 decomposition of the existing nodes
// relative to a (joining or moving) node n:
//
//	In    (1n): nodes with an edge to n only (n hears them)
//	Both  (2n): nodes with edges in both directions
//	Out   (3n): nodes n has an edge to only (they hear n)
//	None  (4n): nodes with no edge to or from n
//
// All slices are sorted ascending.
type Partition struct {
	In   []graph.NodeID
	Both []graph.NodeID
	Out  []graph.NodeID
	None []graph.NodeID
}

// InOrBoth returns 1n union 2n — the set whose members, together with n,
// must end up with mutually distinct colors after a join or move.
func (p Partition) InOrBoth() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(p.In)+len(p.Both))
	out = append(out, p.In...)
	out = append(out, p.Both...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PartitionFor computes the Fig 2 partition of all *other* current nodes
// relative to the hypothetical configuration cfg of node id. The node
// itself may or may not currently be in the network (it is skipped); this
// lets callers evaluate a join before performing it, and a move at its
// destination.
func (n *Network) PartitionFor(id graph.NodeID, cfg Config) Partition {
	p := n.LocalPartitionFor(id, cfg)
	connected := make(map[graph.NodeID]struct{}, len(p.In)+len(p.Both)+len(p.Out))
	for _, lst := range [][]graph.NodeID{p.In, p.Both, p.Out} {
		for _, u := range lst {
			connected[u] = struct{}{}
		}
	}
	for other := range n.configs {
		if other == id {
			continue
		}
		if _, ok := connected[other]; !ok {
			p.None = append(p.None, other)
		}
	}
	sort.Slice(p.None, func(i, j int) bool { return p.None[i] < p.None[j] })
	return p
}

// LocalPartitionFor is PartitionFor without the 4n (None) set. The
// recoding strategies only consume 1n/2n/3n, and skipping 4n keeps the
// per-event cost local (4n is by definition everyone else, an O(n)
// enumeration). This is the hot-path entry the engine uses.
func (n *Network) LocalPartitionFor(id graph.NodeID, cfg Config) Partition {
	var p Partition
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		hearsUs := cfg.Covers(oc.Pos) // would create id -> other
		weHear := oc.Covers(cfg.Pos)  // would create other -> id
		switch {
		case weHear && hearsUs:
			p.Both = append(p.Both, other)
		case weHear:
			p.In = append(p.In, other)
		case hearsUs:
			p.Out = append(p.Out, other)
		}
	})
	for _, lst := range [][]graph.NodeID{p.In, p.Both, p.Out} {
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
	}
	return p
}

// Clone returns a deep copy of the network. Strategies being compared on
// the same event script each get their own clone. The clone's conflict
// index is left unbuilt until its own first ConflictGraph call.
func (n *Network) Clone() *Network {
	var c *Network
	switch {
	case n.autoGrid:
		c = New()
	case n.grid != nil:
		c = NewIndexed(n.gridCell())
	default:
		c = NewScan()
	}
	c.maxRange = n.maxRange
	if c.autoGrid && c.maxRange > 0 {
		c.regrid(c.maxRange)
	}
	for id, cfg := range n.configs {
		c.configs[id] = cfg
		if c.grid != nil {
			c.grid.Insert(id, cfg.Pos)
		}
	}
	c.g = n.g.Clone()
	return c
}

// gridCell reports the indexed network's cell size (0 when naive).
func (n *Network) gridCell() float64 {
	if n.grid == nil {
		return 0
	}
	return n.grid.CellSize()
}

// CheckConsistency verifies that the maintained digraph matches the edges
// induced by the configurations and that the grid (when present) indexes
// exactly the current positions, returning the first mismatch. Intended
// for tests and the cmd/verify tool.
func (n *Network) CheckConsistency() error {
	for u, uc := range n.configs {
		for v, vc := range n.configs {
			if u == v {
				continue
			}
			want := uc.Covers(vc.Pos)
			got := n.g.HasEdge(u, v)
			if want != got {
				return fmt.Errorf("adhoc: edge %d->%d induced=%v stored=%v", u, v, want, got)
			}
		}
	}
	if n.g.NumNodes() != len(n.configs) {
		return fmt.Errorf("adhoc: graph has %d nodes, configs %d", n.g.NumNodes(), len(n.configs))
	}
	if n.grid != nil {
		if n.grid.Len() != len(n.configs) {
			return fmt.Errorf("adhoc: grid indexes %d nodes, configs %d", n.grid.Len(), len(n.configs))
		}
		for id, cfg := range n.configs {
			if p, ok := n.grid.Position(id); !ok || p != cfg.Pos {
				return fmt.Errorf("adhoc: grid position of %d is %v, config %v", id, p, cfg.Pos)
			}
		}
		if err := n.grid.Validate(); err != nil {
			return err
		}
	}
	return n.g.Validate()
}

// MinimalConnectivityOK reports whether the paper's Minimal Connectivity
// assumption holds for node id under configuration cfg: there must exist
// nodes j and k (j, k != id) such that j is within id's range and id is
// within k's range.
func (n *Network) MinimalConnectivityOK(id graph.NodeID, cfg Config) bool {
	var hearsSomeone, someoneHears bool
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			hearsSomeone = true // id transmits to other (other hears id)
		}
		if oc.Covers(cfg.Pos) {
			someoneHears = true // other transmits to id
		}
	})
	return hearsSomeone && someoneHears
}
