package toca

import (
	"fmt"

	"repro/internal/graph"
)

// Checker maintains the number of CA1/CA2 violations of an assignment
// incrementally under single-node recolor operations, in O(conflict
// degree) per update instead of re-verifying the whole network. It is
// the fast path for long-running monitors (cmd/verify) and for gossip
// sweeps on large networks.
//
// The checker counts violating *pairs* exactly as Verify lists them:
// each directed CA1 edge with equal endpoint colors counts once, and
// each unordered in-neighbor pair with equal colors counts once per
// common receiver.
type Checker struct {
	g      *graph.Digraph
	assign Assignment
	count  int
}

// NewChecker builds a checker over the graph and assignment; both are
// referenced, not copied — the caller must route every color change
// through Recolor and every topology change through Rebuild.
func NewChecker(g *graph.Digraph, assign Assignment) *Checker {
	c := &Checker{g: g, assign: assign}
	c.Rebuild()
	return c
}

// Rebuild recounts violations from scratch (after topology changes).
func (c *Checker) Rebuild() {
	c.count = len(Verify(c.g, c.assign))
}

// Violations returns the current violating-pair count.
func (c *Checker) Violations() int { return c.count }

// Recolor changes u's color and updates the violation count
// incrementally.
func (c *Checker) Recolor(u graph.NodeID, newColor Color) {
	if !c.g.HasNode(u) {
		panic(fmt.Sprintf("toca: Recolor of absent node %d", u))
	}
	old := c.assign[u]
	if old == newColor {
		return
	}
	c.count -= c.violationsInvolving(u, old)
	c.assign[u] = newColor
	c.count += c.violationsInvolving(u, newColor)
}

// violationsInvolving counts the violating pairs that include node u
// under the hypothetical color col (None contributes nothing).
func (c *Checker) violationsInvolving(u graph.NodeID, col Color) int {
	if col == None {
		return 0
	}
	n := 0
	// CA1: directed edges u->v and v->u with c_v == col. A mutual edge
	// pair (u->v and v->u) yields two violations, matching Verify.
	c.g.ForEachOut(u, func(v graph.NodeID) {
		if c.assign[v] == col && v != u {
			n++
		}
	})
	c.g.ForEachIn(u, func(v graph.NodeID) {
		if c.assign[v] == col && v != u {
			n++
		}
	})
	// CA2: for each receiver w that u transmits to, other in-neighbors x
	// of w with c_x == col. Each (u, x, w) triple counts once, matching
	// Verify's per-receiver unordered-pair enumeration.
	c.g.ForEachOut(u, func(w graph.NodeID) {
		c.g.ForEachIn(w, func(x graph.NodeID) {
			if x != u && c.assign[x] == col {
				n++
			}
		})
	})
	return n
}
