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
//
// Nodes are filed by digraph slot; a cell is a slice of (slot, position)
// entries, and a per-slot back-pointer makes filing and removal O(1).
package spatial

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// entry is one filed slot and its position.
type entry struct {
	slot int32
	pos  geom.Point
}

// cell is one grid cell's entries, in unspecified order.
type cell struct {
	key  [2]int
	ents []entry
}

// loc is a slot's back-pointer: its cell (nil when not filed) and its
// index there.
type loc struct {
	c *cell
	i int32
}

// Grid is a uniform-cell spatial hash of slot positions.
type Grid struct {
	cellSize float64
	cells    map[[2]int]*cell
	at       []loc // slot -> its entry
}

// NewGrid returns a grid with the given cell edge length. A good default
// for the paper's workloads is the maximum transmission range, making
// range queries touch at most 9 cells. size must be positive.
func NewGrid(size float64) (*Grid, error) {
	if size <= 0 || math.IsNaN(size) || math.IsInf(size, 0) {
		return nil, fmt.Errorf("spatial: invalid cell size %g", size)
	}
	return &Grid{cellSize: size, cells: make(map[[2]int]*cell)}, nil
}

// key maps a point to its cell coordinates.
func (g *Grid) key(p geom.Point) [2]int {
	return [2]int{int(math.Floor(p.X / g.cellSize)), int(math.Floor(p.Y / g.cellSize))}
}

// Insert files slot s at p, moving it if it is already filed. s must be
// non-negative.
func (g *Grid) Insert(s int32, p geom.Point) {
	if int(s) >= len(g.at) {
		g.at = append(g.at, make([]loc, int(s)+1-len(g.at))...)
	}
	k := g.key(p)
	if l := g.at[s]; l.c != nil && l.c.key == k {
		l.c.ents[l.i].pos = p
		return
	}
	g.Remove(s)
	c := g.cells[k]
	if c == nil {
		c = &cell{key: k}
		g.cells[k] = c
	}
	g.at[s] = loc{c, int32(len(c.ents))}
	c.ents = append(c.ents, entry{s, p})
}

// Remove unfiles slot s by moving its cell's last entry into its place,
// and drops the cell once empty. Removing an unfiled slot is a no-op.
func (g *Grid) Remove(s int32) {
	if int(s) >= len(g.at) || g.at[s].c == nil {
		return
	}
	l := g.at[s]
	last := l.c.ents[len(l.c.ents)-1]
	l.c.ents[l.i] = last
	g.at[last.slot].i = l.i
	if l.c.ents = l.c.ents[:len(l.c.ents)-1]; len(l.c.ents) == 0 {
		delete(g.cells, l.c.key)
	}
	g.at[s] = loc{}
}

// CellSize returns the grid's cell edge length.
func (g *Grid) CellSize() float64 { return g.cellSize }

// Position returns slot s's filed position, and false if s is not
// filed.
func (g *Grid) Position(s int32) (geom.Point, bool) {
	if int(s) >= len(g.at) || g.at[s].c == nil {
		return geom.Point{}, false
	}
	return g.at[s].c.ents[g.at[s].i].pos, true
}

// ForEachWithinRadius calls fn for every filed slot within distance r of
// p, in unspecified order. fn must not modify the grid.
func (g *Grid) ForEachWithinRadius(p geom.Point, r float64, fn func(int32)) {
	if r < 0 {
		return
	}
	r2 := r * r
	lo := g.key(geom.Point{X: p.X - r, Y: p.Y - r})
	hi := g.key(geom.Point{X: p.X + r, Y: p.Y + r})
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			if c := g.cells[[2]int{cx, cy}]; c != nil {
				for _, e := range c.ents {
					if p.DistanceSqTo(e.pos) <= r2 {
						fn(e.slot)
					}
				}
			}
		}
	}
}

// Validate checks internal consistency: every entry sits in the cell its
// position maps to and is named by its slot's back-pointer, so no slot
// is filed twice, and no back-pointer names a missing entry.
func (g *Grid) Validate() error {
	extra := 0 // entries minus back-pointers
	for k, c := range g.cells {
		for i, e := range c.ents {
			extra++
			if g.key(e.pos) != k || c.key != k {
				return fmt.Errorf("spatial: slot %d at %v filed under cell %v", e.slot, e.pos, k)
			}
			if int(e.slot) >= len(g.at) || g.at[e.slot] != (loc{c, int32(i)}) {
				return fmt.Errorf("spatial: slot %d at cell %v entry %d has a stale back-pointer", e.slot, k, i)
			}
		}
	}
	for _, l := range g.at {
		if l.c != nil {
			extra--
		}
	}
	if extra != 0 {
		return fmt.Errorf("spatial: entries and back-pointers differ by %d", extra)
	}
	return nil
}
