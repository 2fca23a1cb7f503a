// Package cp implements the CP recoding baseline — the distributed
// strategy of Chlamtac and Pinter [3] as the paper describes and extends
// it (sections 3 and 4.2) for asymmetric links and power increases.
//
// On a join, the new node plus every member of a duplicated old-color
// class among the joiner's in-neighborhood (1n ∪ 2n) select new colors.
// Selection proceeds in decreasing identity order ("highest-first node
// ordering", per the paper's Fig 4/Fig 9 captions): when a node's turn
// comes it takes the lowest color not held by any of its constraint
// neighbors that either keep their color or have already selected. A
// selecting node may re-select its old color, in which case it is not
// counted as recoded.
//
// On a power increase by n, every node that gains a new constraint with n
// and holds n's color, together with n itself, re-selects in decreasing
// identity order.
//
// A move is handled as a leave from all neighbors followed by a join at
// the new position, per the original CP formulation.
//
// The Strategy is an engine.Subscriber: its engine owns the network and
// applies each topology change, then OnDelta re-selects.
package cp

import (
	"fmt"
	"sort"

	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// Strategy is the CP baseline recoder. It reads an engine-owned network
// and is driven through OnDelta; it never mutates the topology.
type Strategy struct {
	net *adhoc.Network
	// colors is the assignment with its incremental max-color count;
	// every write goes through colors.Set.
	colors *toca.Tally
	// StrictMove selects the literal reading of [3]'s movement handling:
	// the mover leaves (dropping its code) and rejoins as a fresh node,
	// so its re-selection always counts as a recoding. The default
	// (false) is the charitable reading used in the paper's Fig 9, where
	// the mover may re-select its old color at no cost.
	StrictMove bool
}

var _ strategy.Strategy = (*Strategy)(nil)
var _ engine.Subscriber = (*Strategy)(nil)

// New returns a CP recoder reading net (owned by the engine the
// recoder is subscribed to) and adopting assign, used directly, not
// copied; a nil assign starts empty.
func New(net *adhoc.Network, assign toca.Assignment) *Strategy {
	return &Strategy{net: net, colors: toca.NewTally(assign)}
}

// Name implements strategy.Strategy.
func (s *Strategy) Name() string {
	if s.StrictMove {
		return "CP-strict"
	}
	return "CP"
}

// Assignment implements strategy.Strategy.
func (s *Strategy) Assignment() toca.Assignment { return s.colors.Assignment() }

// SetColor installs an externally computed color (toca.None removes the
// entry). It is the write path the shard coordinator uses so hosted
// strategies can keep internal accounting consistent with external
// assignment mutations.
func (s *Strategy) SetColor(id graph.NodeID, c toca.Color) { s.colors.Set(id, c) }

// OnDelta implements engine.Subscriber: the CP recoding rules, operating
// on an already-updated topology.
func (s *Strategy) OnDelta(d engine.Delta) (strategy.Outcome, error) {
	id := d.Event.ID
	switch d.Event.Kind {
	case strategy.Join:
		// The joiner plus all duplicated-color in-neighbors re-select
		// colors highest-identity-first.
		recoded := s.reselect(append(duplicatedColorNodes(s.Assignment(), d.Part.InOrBoth()), id))
		return s.outcome(recoded), nil
	case strategy.Leave:
		// Neighbors merely update constraint state; nobody recodes.
		s.colors.Set(id, toca.None)
		return s.outcome(nil), nil
	case strategy.Move:
		// Movement is a leave-then-join pair (the CP formulation): the
		// mover keeps its old color as a candidate and re-selects
		// together with any duplicated-color in-neighbors at the
		// destination.
		if s.StrictMove {
			// Literal leave+join: the mover's code is relinquished before
			// the re-selection, so whatever it picks is a fresh
			// assignment.
			s.colors.Set(id, toca.None)
		}
		recoded := s.reselect(append(duplicatedColorNodes(s.Assignment(), d.Part.InOrBoth()), id))
		return s.outcome(recoded), nil
	case strategy.PowerChange:
		// Decreases recode nobody. For an increase by n, every node with
		// a *new* constraint against n holding n's color re-selects,
		// along with n itself (the paper's section 4.2 description of
		// the CP extension).
		if !d.Increase {
			return s.outcome(nil), nil
		}
		assign := s.Assignment()
		myColor := assign[id]
		var group []graph.NodeID
		for u := range d.ConflictAfter {
			if _, old := d.ConflictBefore[u]; old {
				continue // constraint existed before the increase
			}
			if assign[u] == myColor && myColor != toca.None {
				group = append(group, u)
			}
		}
		if len(group) == 0 {
			// No conflicts: even n keeps its color (nothing to fix).
			return s.outcome(nil), nil
		}
		recoded := s.reselect(append(group, id))
		return s.outcome(recoded), nil
	default:
		return strategy.Outcome{}, fmt.Errorf("cp: unknown event kind %v", d.Event.Kind)
	}
}

// duplicatedColorNodes returns every node of ids whose old color is held
// by at least one other node of ids (the CA2 violators of the CP join
// rule). Unassigned nodes are skipped.
func duplicatedColorNodes(assign toca.Assignment, ids []graph.NodeID) []graph.NodeID {
	counts := make(map[toca.Color]int)
	for _, u := range ids {
		if c := assign[u]; c != toca.None {
			counts[c]++
		}
	}
	var out []graph.NodeID
	for _, u := range ids {
		if c := assign[u]; c != toca.None && counts[c] >= 2 {
			out = append(out, u)
		}
	}
	return out
}

// reselect runs the CP distributed selection for the given group:
// highest identity first, each member taking the lowest color not used by
// any constraint neighbor outside the still-undecided remainder of the
// group. It returns the nodes whose color actually changed.
func (s *Strategy) reselect(group []graph.NodeID) map[graph.NodeID]toca.Color {
	// Decreasing identity order; duplicates removed defensively.
	seen := make(map[graph.NodeID]struct{}, len(group))
	order := group[:0]
	for _, u := range group {
		if _, dup := seen[u]; !dup {
			seen[u] = struct{}{}
			order = append(order, u)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] > order[j] })

	undecided := make(map[graph.NodeID]struct{}, len(order))
	for _, u := range order {
		undecided[u] = struct{}{}
	}
	assign := s.Assignment()
	recoded := make(map[graph.NodeID]toca.Color)
	for _, u := range order {
		delete(undecided, u) // u now decides; its pick constrains later members
		forbidden := toca.Forbidden(s.net.Graph(), assign, u, undecided)
		old := assign[u]
		// The node's own stale entry must not forbid re-selecting itself;
		// Forbidden only consults neighbors, so no correction is needed —
		// but a neighbor that decided earlier is consulted through its
		// already-updated assignment, which is exactly the CP rule.
		c := forbidden.LowestFree()
		s.colors.Set(u, c)
		if c != old {
			recoded[u] = c
		}
	}
	return recoded
}

func (s *Strategy) outcome(recoded map[graph.NodeID]toca.Color) strategy.Outcome {
	return strategy.Outcome{Recoded: recoded, MaxColor: s.colors.Max()}
}
