package toca

import "repro/internal/graph"

// Tally is an Assignment together with a per-color node count, so the
// largest color in use reads in O(1) instead of a rescan after every
// event. Readers may index the map directly; every write must go
// through Set, or the count drifts from the map.
type Tally struct {
	assign Assignment
	count  []int // count[c] is the number of nodes holding color c
	max    Color
}

// NewTally adopts a (used directly, not copied); a nil a starts empty.
func NewTally(a Assignment) *Tally {
	if a == nil {
		a = make(Assignment)
	}
	t := &Tally{assign: a}
	for _, c := range a {
		t.add(c)
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
// count and maximum with it.
func (t *Tally) Set(id graph.NodeID, c Color) {
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
