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
// Each join and move scans its neighborhood once: JoinPart and Move
// return the Fig 2 partition (without 4n) that the scan classifies, and
// the node's edges are rewired by merging the scanned lists with its
// current ones, so only changed edges are touched. Node state is
// addressed by digraph slot: the configurations are a slot-indexed
// slice and the spatial grid files slots. The grid is on by default:
// New() returns a self-indexing network whose grid cell auto-sizes to
// the largest transmission range seen so far. NewScan() keeps the naive
// O(n) scan path alive as a fallback and as the differential-testing
// oracle the equivalence tests replay against.
//
// The CA1/CA2 conflict graph the centralized baseline recolors is kept
// as a refcounted index that every edge flip updates in place; it is
// built on the first ConflictGraph call, so networks that never ask for
// the whole conflict graph never pay for it.
package adhoc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
	g *graph.Digraph
	// cfgs holds each node's configuration under its digraph slot
	// (len(cfgs) == g.SlotCap()); free slots' entries are stale.
	cfgs []Config
	grid *spatial.Grid // nil = naive O(n) scans (NewScan, or no positive range yet)
	// autoGrid marks a New() network: its grid is (re)built from
	// maxRange as ranges are first seen or outgrow the current cell.
	// NewScan networks never build one.
	autoGrid bool
	// maxRange is a monotone upper bound on every range ever present;
	// it bounds how far an in-edge can originate, so grid queries with
	// this radius see every potential coverer. It never shrinks (a node
	// with a huge range leaving degrades query locality, not
	// correctness).
	maxRange float64
	// conf is the conflict index, one row per digraph slot: the entry
	// for v in u's row counts the reasons u and v may not share a code,
	// [u->v] + [v->u] + |out(u) ∩ out(v)|. It is symmetric and stores no
	// zero entries, so u's row lists exactly the slots of
	// toca.ConflictNeighbors(g, u), ascending by slot. It stays nil
	// until the first ConflictGraph call builds it; from then on flip
	// keeps it current on every edge flip.
	conf [][]conflict
	// links is the last event scan's classification, scratch reused
	// from event to event.
	links []link
}

// conflict is one entry of a conflict-index row: the neighbor's slot
// and the pair's count of conflict reasons.
type conflict struct {
	slot, n int32
}

// link is a node a scan found linked to the scanned configuration: out
// when the configuration covers it, in when it covers the configuration.
type link struct {
	id      graph.NodeID
	slot    int32
	out, in bool
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
	return &Network{g: graph.New()}
}

// live reports whether slot s holds a node.
func (n *Network) live(s int32) bool { return n.g.Gen(s)&1 == 1 }

// scan appends to links every node other than the one in slot self
// (-1 for none) that has an edge to or from a node configured cfg, and
// sorts links by ID. Without a grid every node is a candidate.
func (n *Network) scan(links []link, self int32, cfg Config) []link {
	visit := func(s int32) {
		if s == self {
			return
		}
		oc := n.cfgs[s]
		out, in := cfg.Covers(oc.Pos), oc.Covers(cfg.Pos)
		if out || in {
			links = append(links, link{id: n.g.Owner(s), slot: s, out: out, in: in})
		}
	}
	if n.grid == nil {
		for s := range n.cfgs {
			if n.live(int32(s)) {
				visit(int32(s))
			}
		}
	} else {
		n.grid.ForEachWithinRadius(cfg.Pos, max(cfg.Range, n.maxRange), visit)
	}
	slices.SortFunc(links, func(a, b link) int { return cmp.Compare(a.id, b.id) })
	return links
}

// partition returns the Fig 2 sets (without 4n) of links, sorted by ID,
// in one fresh array; each set is capped so appends cannot overlap.
func partition(links []link) Partition {
	ids := make([]graph.NodeID, 0, len(links))
	var cut [4]int
	for k, set := range [3]link{{in: true}, {in: true, out: true}, {out: true}} {
		for _, l := range links {
			if l.in == set.in && l.out == set.out {
				ids = append(ids, l.id)
			}
		}
		cut[k+1] = len(ids)
	}
	return Partition{In: ids[:cut[1]:cut[1]], Both: ids[cut[1]:cut[2]:cut[2]], Out: ids[cut[2]:]}
}

// rewire scans around the configuration of the node in slot s and
// brings its out-list (and, with in set, its in-list) to what the scan
// found.
func (n *Network) rewire(s int32, in bool) {
	n.links = n.scan(n.links[:0], s, n.cfgs[s])
	n.relink(s, false)
	if in {
		n.relink(s, true)
	}
}

// relink merges the in-list (in) or out-list of slot s with the matching
// side of n.links, both ascending by ID, flipping only the edges that
// differ. Walking from the back, a flip shifts only entries passed.
func (n *Network) relink(s int32, in bool) {
	have := n.g.OutSlots(s)
	if in {
		have = n.g.InSlots(s)
	}
	i := len(have) - 1
	for j := len(n.links) - 1; j >= 0; j-- {
		if l := n.links[j]; l.in && in || l.out && !in {
			for ; i >= 0 && n.g.Owner(have[i]) > l.id; i-- {
				n.flip(s, have[i], in, false)
			}
			if i >= 0 && have[i] == l.slot {
				i--
			} else {
				n.flip(s, l.slot, in, true)
			}
		}
	}
	for ; i >= 0; i-- {
		n.flip(s, have[i], in, false)
	}
}

// flip adds the absent or removes the present edge x->s (in) or s->x.
// Every edge flip goes through it so a built conflict index stays
// current.
func (n *Network) flip(s, x int32, in, add bool) {
	if in {
		s, x = x, s
	}
	d := int32(1)
	if !add {
		d = -1
		n.g.RemoveSlotEdge(s, x)
	}
	if n.conf != nil {
		n.flipConflicts(s, x, d) // reads in(x) while it excludes s
	}
	if add {
		n.g.AddSlotEdge(s, x)
	}
}

// noteRange folds a new range into the monotone maximum and, on a New()
// network, builds or rebuilds the grid when the maximum outgrows the
// cell. The comparison direction is NaN-robust: a NaN never overwrites
// the maximum (and the event methods reject non-finite ranges up front).
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

// regrid rebuilds the grid with the given cell, re-filing every current
// node. maxRange is monotone, so rebuilds happen O(log(maxR)) times over
// a network's lifetime.
func (n *Network) regrid(cell float64) {
	grid, err := spatial.NewGrid(cell)
	if err != nil {
		return // invalid cell: keep the previous grid (or scan path) as is
	}
	for _, s := range n.g.Slots() {
		grid.Insert(s, n.cfgs[s].Pos)
	}
	n.grid = grid
}

// Graph exposes the induced digraph. Callers must treat it as read-only;
// all mutation goes through the event methods so the graph stays
// consistent with the configurations.
func (n *Network) Graph() *graph.Digraph { return n.g }

// Size returns the number of nodes currently in the network.
func (n *Network) Size() int { return n.g.NumNodes() }

// Has reports whether id is currently in the network.
func (n *Network) Has(id graph.NodeID) bool { return n.g.HasNode(id) }

// Config returns the configuration of id. The second result is false if
// id is not in the network.
func (n *Network) Config(id graph.NodeID) (Config, bool) {
	s, ok := n.g.Slot(id)
	if !ok {
		return Config{}, false
	}
	return n.cfgs[s], true
}

// Nodes returns all node IDs in ascending order.
func (n *Network) Nodes() []graph.NodeID { return n.g.Nodes() }

// MaxRange returns the monotone upper bound on every range ever present.
func (n *Network) MaxRange() float64 { return n.maxRange }

// Join adds a node with the given configuration and wires up its induced
// edges. It returns an error if the id is already present, the position
// is not finite, or the range is negative or not finite.
func (n *Network) Join(id graph.NodeID, cfg Config) error {
	if n.g.HasNode(id) {
		return fmt.Errorf("adhoc: node %d already in network", id)
	}
	if !finite(cfg.Pos) {
		return fmt.Errorf("adhoc: node %d has invalid position (%g, %g)", id, cfg.Pos.X, cfg.Pos.Y)
	}
	if cfg.Range < 0 || math.IsNaN(cfg.Range) || math.IsInf(cfg.Range, 0) {
		return fmt.Errorf("adhoc: node %d has invalid range %g", id, cfg.Range)
	}
	n.g.AddNode(id)
	s, _ := n.g.Slot(id)
	if int(s) == len(n.cfgs) {
		n.cfgs = append(n.cfgs, Config{})
	}
	n.cfgs[s] = cfg
	n.noteRange(cfg.Range) // a regrid files the joiner too
	if n.grid != nil {
		n.grid.Insert(s, cfg.Pos)
	}
	n.rewire(s, true)
	return nil
}

// JoinPart is Join that also returns the Fig 2 partition (without 4n)
// of the other nodes relative to the joiner, classified by the join's
// own neighbor scan.
func (n *Network) JoinPart(id graph.NodeID, cfg Config) (Partition, error) {
	if err := n.Join(id, cfg); err != nil {
		return Partition{}, err
	}
	return partition(n.links), nil
}

// Leave removes a node and all its incident edges. It returns an error if
// the id is absent.
func (n *Network) Leave(id graph.NodeID) error {
	s, ok := n.g.Slot(id)
	if !ok {
		return fmt.Errorf("adhoc: node %d not in network", id)
	}
	n.links = n.links[:0] // no links: relink drops every edge
	n.relink(s, false)
	n.relink(s, true)
	n.g.RemoveNode(id)
	if n.grid != nil {
		n.grid.Remove(s)
	}
	return nil
}

// Move changes a node's position and rewires its incident edges in both
// directions (its own coverage changes, and other nodes may gain or lose
// coverage of it). It returns the Fig 2 partition (without 4n) of the
// other nodes relative to the node at its destination, classified by
// the move's own neighbor scan, or an error if the id is absent or the
// position is not finite.
func (n *Network) Move(id graph.NodeID, pos geom.Point) (Partition, error) {
	s, ok := n.g.Slot(id)
	if !ok {
		return Partition{}, fmt.Errorf("adhoc: node %d not in network", id)
	}
	if !finite(pos) {
		return Partition{}, fmt.Errorf("adhoc: node %d moved to invalid position (%g, %g)", id, pos.X, pos.Y)
	}
	n.cfgs[s].Pos = pos
	if n.grid != nil {
		n.grid.Insert(s, pos)
	}
	n.rewire(s, true)
	return partition(n.links), nil
}

// finite reports whether both coordinates of p are finite.
func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// SetRange changes a node's maximum transmission range. Only the node's
// own out-edges are affected (in-edges depend on other nodes' ranges).
func (n *Network) SetRange(id graph.NodeID, r float64) error {
	s, ok := n.g.Slot(id)
	if !ok {
		return fmt.Errorf("adhoc: node %d not in network", id)
	}
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("adhoc: node %d invalid range %g", id, r)
	}
	cfg := &n.cfgs[s]
	raise := r > cfg.Range
	cfg.Range = r
	n.noteRange(r)
	if raise {
		n.rewire(s, false)
		return nil
	}
	// A decrease only drops out-edges, so it needs no scan. Walking back
	// keeps the unvisited prefix in place as edges go.
	out := n.g.OutSlots(s)
	for i := len(out) - 1; i >= 0; i-- {
		if !cfg.Covers(n.cfgs[out[i]].Pos) {
			n.flip(s, out[i], false, false)
		}
	}
	return nil
}

// flipConflicts applies the index change of adding (d = 1) or removing
// (d = -1) the edge u->v while in(v) excludes u: the pair (u, v) gains or
// loses its CA1 reason, and u gains or loses the shared receiver v with
// every other transmitter x of v (CA2 at v).
func (n *Network) flipConflicts(u, v int32, d int32) {
	n.bumpConflict(u, v, d)
	for _, x := range n.g.InSlots(v) {
		n.bumpConflict(u, x, d)
	}
}

// bumpConflict adds d to the symmetric count of the slot pair (u, v),
// dropping the pair from both rows when it reaches zero.
func (n *Network) bumpConflict(u, v int32, d int32) {
	if c := n.g.SlotCap(); len(n.conf) < c {
		n.conf = append(n.conf, make([][]conflict, c-len(n.conf))...)
	}
	n.bumpRow(u, v, d)
	n.bumpRow(v, u, d)
}

// bumpRow is the one-sided half of bumpConflict, on u's row.
func (n *Network) bumpRow(u, v int32, d int32) {
	row := n.conf[u]
	i, hi := 0, len(row)
	for i < hi {
		if mid := int(uint(i+hi) >> 1); row[mid].slot < v {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	switch {
	case i == len(row) || row[i].slot != v:
		n.conf[u] = slices.Insert(row, i, conflict{slot: v, n: d})
	case row[i].n+d == 0:
		n.conf[u] = slices.Delete(row, i, i+1)
	default:
		row[i].n += d
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
// u ~ v iff u->v, v->u, or u and v share an out-neighbor. Its vertices
// are addressed by their digraph slots. It reads the live conflict
// index, so each call reflects the network's current state; read it
// between events, never concurrently with one. It has the method set
// of coloring.Graph, which lets the centralized recoloring color it in
// place without copying it.
type ConflictView struct{ n *Network }

// Slots returns every node's slot, ascending by node ID (isolated nodes
// included).
func (v ConflictView) Slots() []int32 { return v.n.g.Slots() }

// ID returns the node in slot s.
func (v ConflictView) ID(s int32) graph.NodeID { return v.n.g.Owner(s) }

// SlotCap bounds every slot the view yields.
func (v ConflictView) SlotCap() int { return v.n.g.SlotCap() }

// Degree returns the number of conflict neighbors of the node in slot s.
func (v ConflictView) Degree(s int32) int {
	if int(s) < len(v.n.conf) {
		return len(v.n.conf[s])
	}
	return 0
}

// ForEachNeighbor calls fn once with the slot of every conflict
// neighbor of the node in slot s, in unspecified order.
func (v ConflictView) ForEachNeighbor(s int32, fn func(int32)) {
	if int(s) < len(v.n.conf) {
		for _, e := range v.n.conf[s] {
			fn(e.slot)
		}
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

// buildConflicts counts every conflict reason of the current digraph,
// one row at a time: u's row counts each out- and in-neighbor once per
// edge (the CA1 reasons) and every other transmitter into each of u's
// receivers (the CA2 reasons), tallied in a slot-indexed count and
// emitted in slot order.
func (n *Network) buildConflicts() {
	g := n.g
	n.conf = make([][]conflict, g.SlotCap())
	count := make([]int32, len(n.conf))
	var seen []int32
	note := func(v int32) {
		if count[v] == 0 {
			seen = append(seen, v)
		}
		count[v]++
	}
	for u := range n.conf {
		su := int32(u)
		seen = seen[:0]
		for _, w := range g.OutSlots(su) {
			note(w)
			for _, x := range g.InSlots(w) {
				if x != su {
					note(x)
				}
			}
		}
		for _, v := range g.InSlots(su) {
			note(v)
		}
		if len(seen) == 0 {
			continue
		}
		slices.Sort(seen)
		row := make([]conflict, len(seen))
		for i, v := range seen {
			row[i] = conflict{slot: v, n: count[v]}
			count[v] = 0
		}
		n.conf[u] = row
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
	slices.Sort(out)
	return out
}

// PartitionFor computes the Fig 2 partition of all *other* current nodes
// relative to the hypothetical configuration cfg of node id. The node
// itself may or may not currently be in the network (it is skipped); this
// lets callers evaluate a join before performing it, and a move at its
// destination. The 4n set makes it O(n); JoinPart and Move return the
// 1n/2n/3n sets of their own scan.
func (n *Network) PartitionFor(id graph.NodeID, cfg Config) Partition {
	self, ok := n.g.Slot(id)
	if !ok {
		self = -1
	}
	links := n.scan(nil, self, cfg)
	p := partition(links)
	for _, v := range n.g.Nodes() {
		if len(links) > 0 && links[0].id == v {
			links = links[1:]
		} else if v != id {
			p.None = append(p.None, v)
		}
	}
	return p
}

// Clone returns a deep copy of the network, slot numbering included.
// Strategies being compared on the same event script each get their own
// clone. The clone's conflict index is left unbuilt until its own first
// ConflictGraph call.
func (n *Network) Clone() *Network {
	c := &Network{
		g:        n.g.Clone(),
		cfgs:     slices.Clone(n.cfgs),
		autoGrid: n.autoGrid,
		maxRange: n.maxRange,
	}
	if n.grid != nil {
		c.regrid(n.grid.CellSize())
	}
	return c
}

// CheckConsistency verifies that the maintained digraph matches the edges
// induced by the configurations and that the grid (when present) files
// exactly the live slots at their configured positions, returning the
// first mismatch. Intended for tests and the cmd/verify tool.
func (n *Network) CheckConsistency() error {
	slots := n.g.Slots()
	for _, u := range slots {
		for _, v := range slots {
			if u == v {
				continue
			}
			want := n.cfgs[u].Covers(n.cfgs[v].Pos)
			got := n.g.HasEdge(n.g.Owner(u), n.g.Owner(v))
			if want != got {
				return fmt.Errorf("adhoc: edge %d->%d induced=%v stored=%v", n.g.Owner(u), n.g.Owner(v), want, got)
			}
		}
	}
	if n.grid != nil {
		for s, cfg := range n.cfgs {
			if p, ok := n.grid.Position(int32(s)); ok != n.live(int32(s)) || ok && p != cfg.Pos {
				return fmt.Errorf("adhoc: slot %d (live %v) filed %v at %v, config %v", s, n.live(int32(s)), ok, p, cfg.Pos)
			}
		}
		if err := n.grid.Validate(); err != nil {
			return err
		}
	}
	return n.g.Validate()
}
