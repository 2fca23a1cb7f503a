package toca

import "repro/internal/graph"

// Tally is an Assignment kept over a digraph's node slots, for the
// strategies that recode on that digraph. Beside the map it holds
//
//   - a per-color node count, so the largest color in use reads in O(1)
//     instead of a rescan after every event, and
//   - each node's color cached under its slot, so the constraint walks
//     (Forbidden, ForbiddenAll) read an array instead of hashing a
//     NodeID per visited neighbor.
//
// A slot's entry records the slot generation it was written under. The
// digraph bumps a slot's generation whenever it changes hands, so an
// entry left by a node that has since left (its strategy clears its
// color only after the engine removed it from the digraph) never
// matches the slot's next owner: a stale entry reads through to the map
// instead, which holds the owner's true color (None until it is
// written). Readers may index the map directly; every write must go
// through Set, or the count and the slot cache drift from the map.
type Tally struct {
	g      *graph.Digraph
	assign Assignment
	slots  []slotColor // slot -> color cached under a generation
	count  []int       // count[c] is the number of nodes holding color c
	max    Color
}

// slotColor is a color cached for the owner of a slot at generation gen.
type slotColor struct {
	gen uint32
	c   int32
}

// NewTally adopts a (used directly, not copied) as the assignment of
// g's nodes; a nil a starts empty.
func NewTally(g *graph.Digraph, a Assignment) *Tally {
	if a == nil {
		a = make(Assignment)
	}
	t := &Tally{g: g, assign: a}
	for id, c := range a {
		t.add(c)
		if s, ok := g.Slot(id); ok {
			t.cache(s, c)
		}
	}
	return t
}

// Assignment returns the tallied map. Callers must treat it as
// read-only.
func (t *Tally) Assignment() Assignment { return t.assign }

// Max returns the largest color in use, or None when nothing is
// assigned; it equals Assignment().MaxColor().
func (t *Tally) Max() Color { return t.max }

// Set writes one node's code (None removes the entry) and updates the
// count, the maximum and the node's slot with it; it also ends a Lift
// of the node.
func (t *Tally) Set(id graph.NodeID, c Color) {
	if s, ok := t.g.Slot(id); ok {
		t.cache(s, c)
	}
	old := t.assign[id]
	if old == c {
		return
	}
	if old > None {
		t.count[old]--
		for t.max > None && t.count[t.max] == 0 {
			t.max--
		}
	}
	t.assign.Set(id, c)
	t.add(c)
}

// Lift hides the colors of ids from the constraint walks until each is
// next Set: their slots read None, while the map, the count and the
// maximum keep the colors. The recoding strategies lift the nodes they
// are about to recolor, whose old colors must not constrain each other.
func (t *Tally) Lift(ids []graph.NodeID) {
	for _, id := range ids {
		if s, ok := t.g.Slot(id); ok {
			t.cache(s, None)
		}
	}
}

// at returns the color of the node in slot s as the walks see it: the
// cached entry if it was written under the slot's current generation,
// else the owner's color in the map.
func (t *Tally) at(s int32) Color {
	if int(s) < len(t.slots) {
		if e := t.slots[s]; e.gen == t.g.Gen(s) {
			return Color(e.c)
		}
	}
	return t.assign[t.g.Owner(s)]
}

// cache records c for the current owner of slot s, growing the cache to
// the digraph's slot capacity.
func (t *Tally) cache(s int32, c Color) {
	if n := t.g.SlotCap(); len(t.slots) < n {
		t.slots = append(t.slots, make([]slotColor, n-len(t.slots))...)
	}
	t.slots[s] = slotColor{gen: t.g.Gen(s), c: int32(c)}
}

// add counts one more holder of c.
func (t *Tally) add(c Color) {
	if c <= None {
		return
	}
	for int(c) >= len(t.count) {
		t.count = append(t.count, 0)
	}
	t.count[c]++
	if c > t.max {
		t.max = c
	}
}
