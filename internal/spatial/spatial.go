// Package spatial provides a uniform-grid spatial index over node
// positions. The ad-hoc network model needs "who is within distance r of
// p" for every reconfiguration event; the naive scan is O(n) per query,
// while the grid answers in O(k) for the cell-local population k.
//
// The index is a pure accelerator: queries must return exactly the same
// sets as the naive scan (a property the tests enforce), so the network
// layer can use either interchangeably. Cell size is chosen at
// construction; queries with radius much larger than the cell size
// degrade gracefully to a bounded multi-cell scan.
package spatial

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Grid is a uniform-cell spatial hash of node positions.
type Grid struct {
	cell  float64
	cells map[[2]int]map[graph.NodeID]geom.Point
	pos   map[graph.NodeID]geom.Point
}

// NewGrid returns a grid with the given cell edge length. A good default
// for the paper's workloads is the maximum transmission range, making
// range queries touch at most 9 cells. cell must be positive.
func NewGrid(cell float64) (*Grid, error) {
	if cell <= 0 || math.IsNaN(cell) || math.IsInf(cell, 0) {
		return nil, fmt.Errorf("spatial: invalid cell size %g", cell)
	}
	return &Grid{
		cell:  cell,
		cells: make(map[[2]int]map[graph.NodeID]geom.Point),
		pos:   make(map[graph.NodeID]geom.Point),
	}, nil
}

// key maps a point to its cell coordinates.
func (g *Grid) key(p geom.Point) [2]int {
	return [2]int{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
}

// Insert adds or replaces a node's position.
func (g *Grid) Insert(id graph.NodeID, p geom.Point) {
	if old, ok := g.pos[id]; ok {
		g.removeFromCell(id, old)
	}
	g.pos[id] = p
	k := g.key(p)
	cell := g.cells[k]
	if cell == nil {
		cell = make(map[graph.NodeID]geom.Point)
		g.cells[k] = cell
	}
	cell[id] = p
}

// Remove deletes a node. Removing an absent node is a no-op.
func (g *Grid) Remove(id graph.NodeID) {
	if p, ok := g.pos[id]; ok {
		g.removeFromCell(id, p)
		delete(g.pos, id)
	}
}

func (g *Grid) removeFromCell(id graph.NodeID, p geom.Point) {
	k := g.key(p)
	if cell := g.cells[k]; cell != nil {
		delete(cell, id)
		if len(cell) == 0 {
			delete(g.cells, k)
		}
	}
}

// Move updates a node's position. Equivalent to Insert.
func (g *Grid) Move(id graph.NodeID, p geom.Point) { g.Insert(id, p) }

// Len returns the number of indexed nodes.
func (g *Grid) Len() int { return len(g.pos) }

// CellSize returns the grid's cell edge length.
func (g *Grid) CellSize() float64 { return g.cell }

// Position returns a node's indexed position.
func (g *Grid) Position(id graph.NodeID) (geom.Point, bool) {
	p, ok := g.pos[id]
	return p, ok
}

// ForEachWithinRadius calls fn for every indexed node within distance r
// of p, in unspecified order.
func (g *Grid) ForEachWithinRadius(p geom.Point, r float64, fn func(graph.NodeID, geom.Point)) {
	if r < 0 {
		return
	}
	r2 := r * r
	lo := g.key(geom.Point{X: p.X - r, Y: p.Y - r})
	hi := g.key(geom.Point{X: p.X + r, Y: p.Y + r})
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			for id, q := range g.cells[[2]int{cx, cy}] {
				if p.DistanceSqTo(q) <= r2 {
					fn(id, q)
				}
			}
		}
	}
}

// Validate checks internal consistency (every node in exactly its cell).
func (g *Grid) Validate() error {
	counted := 0
	for k, cell := range g.cells {
		for id, p := range cell {
			counted++
			if g.key(p) != k {
				return fmt.Errorf("spatial: node %d at %v filed under cell %v", id, p, k)
			}
			if gp, ok := g.pos[id]; !ok || gp != p {
				return fmt.Errorf("spatial: node %d cell/pos mismatch", id)
			}
		}
	}
	if counted != len(g.pos) {
		return fmt.Errorf("spatial: %d nodes in cells, %d in pos", counted, len(g.pos))
	}
	return nil
}
