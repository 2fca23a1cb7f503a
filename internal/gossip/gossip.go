// Package gossip implements the extension the paper's section 6 sketches
// as future work: "a recoding strategy that seeks to maximize the
// network-wide code reuse by using a local gossiping strategy ... during
// the (possibly significantly long) periods when no nodes connect to,
// move about or increase their power within the ad-hoc network."
//
// The rule is purely local: a node whose color is not the lowest feasible
// one for its conflict neighborhood re-selects the lowest feasible color.
// Rounds sweep nodes in descending color order (highest codes first, so
// the top of the code space drains fastest). The process
//
//   - never introduces CA1/CA2 violations (each re-selection respects the
//     full current neighborhood),
//   - never increases the maximum color index,
//   - reaches quiescence: a state where no node can lower its color
//     (a greedy local fixpoint), in at most a bounded number of rounds.
package gossip

import (
	"sort"

	"repro/internal/adhoc"
	"repro/internal/toca"
)

// Result summarizes a compaction run.
type Result struct {
	Rounds    int        // rounds executed (including the final quiet one)
	Recodings int        // total color changes performed
	MaxBefore toca.Color // max color before compaction
	MaxAfter  toca.Color // max color at quiescence
}

// Step performs one gossip round over the network: every node, visited in
// descending (color, id) order, re-selects the lowest color feasible for
// its conflict neighborhood. It returns the number of nodes that changed
// color. The assignment is modified in place.
func Step(net *adhoc.Network, assign toca.Assignment) int {
	g := net.Graph()
	ids := net.Nodes()
	sort.SliceStable(ids, func(i, j int) bool {
		ci, cj := assign[ids[i]], assign[ids[j]]
		if ci != cj {
			return ci > cj
		}
		return ids[i] > ids[j]
	})
	changed := 0
	for _, id := range ids {
		cur := assign[id]
		if cur == toca.None {
			continue
		}
		forb := toca.Forbidden(g, assign, id, nil)
		if best := forb.LowestFree(); best < cur {
			assign[id] = best
			changed++
		}
	}
	return changed
}

// Compact runs gossip rounds until quiescence or maxRounds, whichever
// comes first. maxRounds <= 0 means no limit (the process provably
// terminates: every change strictly decreases a node's color, and colors
// are bounded below by 1).
func Compact(net *adhoc.Network, assign toca.Assignment, maxRounds int) Result {
	res := Result{MaxBefore: assign.MaxColor()}
	for {
		res.Rounds++
		changed := Step(net, assign)
		res.Recodings += changed
		if changed == 0 {
			break
		}
		if maxRounds > 0 && res.Rounds >= maxRounds {
			break
		}
	}
	res.MaxAfter = assign.MaxColor()
	return res
}

// Quiescent reports whether no node can lower its color — the gossip
// fixpoint.
func Quiescent(net *adhoc.Network, assign toca.Assignment) bool {
	g := net.Graph()
	for _, id := range net.Nodes() {
		cur := assign[id]
		if cur == toca.None {
			continue
		}
		if toca.Forbidden(g, assign, id, nil).LowestFree() < cur {
			return false
		}
	}
	return true
}
