// Package core implements the paper's primary contribution: the Minim
// family of minimal recoding strategies for dynamic TOCA code assignment
// in power-controlled ad-hoc networks (section 4 of the paper).
//
//   - RecodeOnJoin (Fig 3): when node n joins, only nodes in
//     1n ∪ 2n ∪ {n} are considered. A maximum-weight bipartite matching
//     between those nodes and the colors 1..max — old-color edges
//     weighted 3, all other feasible edges weighted 1 — selects new
//     colors so that exactly Σ(K_i − 1) old nodes are recoded (the
//     provably minimal number, Lemma 4.1.1/Theorem 4.1.8) while the
//     maximum color index grows the least possible among minimal 1-hop
//     strategies (Theorem 4.1.9).
//   - RecodeOnPowIncrease (Fig 5): every new constraint involves n
//     itself, so at most n is recoded, to the lowest feasible color.
//   - RecodeDecreasePowOrLeave: removals never create conflicts; no node
//     is recoded.
//   - RecodeOnMove (Fig 8): equivalent to a leave followed by a join at
//     the new position (Theorem 4.4.1), executed as one event.
//
// The Recoder is an engine.Subscriber: an engine owns the network,
// decodes each event once, and hands the Recoder the Delta, so Minim
// runs side by side with the CP and BBB baselines on one topology.
package core

import (
	"fmt"

	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// weightOld is the matching weight of an old-color edge; weightNew is the
// weight of every other feasible edge. The minimality proof requires
// weightOld > 2*weightNew (one kept color must beat any two unit edges);
// the paper uses 3 and 1.
const (
	weightOld int64 = 3
	weightNew int64 = 1
)

// Recoder is the Minim strategy: a TOCA assignment maintained minimally
// under reconfiguration events, read against an engine-owned network.
// The recoder never mutates the network; its engine applies each
// topology change and then calls OnDelta.
type Recoder struct {
	net *adhoc.Network
	// colors is the assignment with its incremental max-color count, so
	// outcome() reads the maximum in O(1). Every write goes through
	// colors.Set; external writers (the shard coordinator's writeback,
	// the batch scheduler's wave commit) use SetColor, never the raw map.
	colors *toca.Tally
	// scratch and forb are the matching solver's and the constraint
	// walk's reusable working memory: one recoder recodes sequentially,
	// so both are allocated once per recoder instead of once per event.
	scratch *matching.Scratch
	forb    *toca.ForbiddenScratch
}

var _ strategy.Strategy = (*Recoder)(nil)
var _ engine.Subscriber = (*Recoder)(nil)

// New returns a Minim recoder reading net (owned by the engine the
// recoder is subscribed to) and adopting assign, used directly, not
// copied; a nil assign starts empty.
func New(net *adhoc.Network, assign toca.Assignment) *Recoder {
	return &Recoder{net: net, colors: toca.NewTally(assign),
		scratch: matching.NewScratch(), forb: toca.NewForbiddenScratch()}
}

// Name implements strategy.Strategy.
func (r *Recoder) Name() string { return "Minim" }

// Assignment implements strategy.Strategy. Callers must treat the map
// as read-only; external writes go through SetColor so the incremental
// max-color accumulator stays consistent.
func (r *Recoder) Assignment() toca.Assignment { return r.colors.Assignment() }

// SetColor installs a color computed outside the recoder (the shard
// coordinator's writeback, the batch scheduler's wave commits);
// toca.None removes the entry. It keeps the max-color accumulator in
// sync with the mutation.
func (r *Recoder) SetColor(id graph.NodeID, c toca.Color) { r.colors.Set(id, c) }

// OnDelta implements engine.Subscriber: the per-event recoding
// algorithms, operating on an already-updated topology.
func (r *Recoder) OnDelta(d engine.Delta) (strategy.Outcome, error) {
	switch d.Event.Kind {
	case strategy.Join, strategy.Move:
		// RecodeOnJoin (Fig 3) / RecodeOnMove (Fig 8): the join-style
		// matching recoding over the partition at the (new) position
		// (Theorem 4.4.1: move ≡ leave + join). The mover's old color
		// participates as a weight-3 edge, so it keeps its code whenever
		// the matching can afford it — matching the paper's Fig 9
		// example, where the moving node retains its color.
		recoded := r.recodeLocal(d.Event.ID, d.Part.InOrBoth())
		return r.outcome(recoded), nil
	case strategy.Leave:
		// RecodeDecreasePowOrLeave: nobody is recoded (Theorem 4.3.3:
		// removals introduce no conflicts).
		r.colors.Set(d.Event.ID, toca.None)
		return r.outcome(nil), nil
	case strategy.PowerChange:
		if !d.Increase {
			// Power decrease only removes edges; the old assignment stays
			// valid and zero nodes are recoded (Theorem 4.3.3).
			return r.outcome(nil), nil
		}
		// Power increase (Fig 5): every new constraint involves the node
		// itself (section 4.2), so recoding it alone suffices — and only
		// if its current color now conflicts.
		id := d.Event.ID
		assign := r.colors.Assignment()
		forb := toca.Forbidden(r.net.Graph(), assign, id, nil)
		cur := assign[id]
		if cur != toca.None && !forb.Has(cur) {
			return r.outcome(nil), nil
		}
		c := forb.LowestFree()
		r.colors.Set(id, c)
		return r.outcome(map[graph.NodeID]toca.Color{id: c}), nil
	default:
		return strategy.Outcome{}, fmt.Errorf("core: unknown event kind %v", d.Event.Kind)
	}
}

// recodeLocal runs steps 1-6 of RecodeOnJoin/RecodeOnMove for node n
// whose relevant neighborhood is inOrBoth = 1n ∪ 2n (already reflecting
// the network *after* the topology change). It mutates the assignment and
// returns the recoded set.
func (r *Recoder) recodeLocal(n graph.NodeID, inOrBoth []graph.NodeID) map[graph.NodeID]toca.Color {
	// V1 = 1n ∪ 2n ∪ {n}, in deterministic order with n last.
	v1 := make([]graph.NodeID, 0, len(inOrBoth)+1)
	v1 = append(v1, inOrBoth...)
	v1 = append(v1, n)

	// Steps 1-2: gather per-node external constraints. Rather than pass
	// the exclude set into every constraint walk (a hash probe per
	// visited node — the profile's dominant cost on this path), the
	// members' colors are lifted out of the assignment for the duration
	// of the walks: an excluded node then contributes None, which
	// ColorSet.Add ignores. Same semantics, zero membership tests. The
	// lift bypasses colors.Set deliberately — it is restored below before
	// any accumulator-visible mutation.
	assign := r.colors.Assignment()
	old := make(map[graph.NodeID]toca.Color, len(v1))
	for _, u := range v1 {
		old[u] = assign[u]
		delete(assign, u)
	}
	forb := toca.ForbiddenAll(r.forb, r.net.Graph(), assign, v1)
	for _, u := range v1 {
		if c := old[u]; c != toca.None {
			assign[u] = c
		}
	}

	// Steps 3-5 are the pure matching computation.
	newColors := solveWeighted(r.scratch, v1, old, forb, weightOld, weightNew)
	recoded := make(map[graph.NodeID]toca.Color)
	for _, u := range v1 {
		c := newColors[u]
		if assign[u] != c {
			recoded[u] = c
		}
		r.colors.Set(u, c)
	}
	return recoded
}

// Solve is the pure core of RecodeOnJoin/RecodeOnMove (steps 3-5 of the
// paper's Fig 3): given V1 = 1n ∪ 2n ∪ {n}, each member's old color
// (toca.None for a fresh joiner), and each member's externally forbidden
// colors, it returns the new color for every member.
//
// It builds the weighted bipartite graph G' over colors 1..max (max =
// maximum color among old colors and constraints), weights old-color
// edges 3 and all other feasible edges 1, runs maximum-weight matching,
// and hands fresh colors max+1, max+2, ... to unmatched members in V1
// order.
//
// The function is shared by the sequential Recoder and the distributed
// join protocol (package dist), which computes the same inputs from
// protocol messages.
func Solve(v1 []graph.NodeID, old map[graph.NodeID]toca.Color, forb map[graph.NodeID]toca.ColorSet) map[graph.NodeID]toca.Color {
	return SolveWeighted(v1, old, forb, weightOld, weightNew)
}

// SolveWeighted is Solve with explicit edge weights. It exists for the
// weight ablation (DESIGN.md A1): the minimality proof requires
// wOld > 2*wNew, and running the recoder with wOld = 2 or wOld = 1
// demonstrates how the guarantee degrades.
func SolveWeighted(v1 []graph.NodeID, old map[graph.NodeID]toca.Color, forb map[graph.NodeID]toca.ColorSet, wOld, wNew int64) map[graph.NodeID]toca.Color {
	return solveWeighted(nil, v1, old, forb, wOld, wNew)
}

// solveWeighted is the shared implementation. With a nil scratch it
// materializes the edge list and allocates fresh solver state (the
// pure-function path Solve and the dist protocols use). With a scratch
// it skips the edge list entirely: the weight matrix is dense minus the
// forbidden cells, so each row is filled with wNew, the old-color cell
// upgraded to wOld, and only the (sparse) forbidden set is walked to
// zero its cells — O(k·max + Σ|forb|) writes instead of a per-cell
// membership test plus k·max edge appends. Both paths hand the solver
// the identical matrix, so they return the identical matching — same
// tie-breaking — differentially tested here and in internal/matching.
func solveWeighted(s *matching.Scratch, v1 []graph.NodeID, old map[graph.NodeID]toca.Color, forb map[graph.NodeID]toca.ColorSet, wOld, wNew int64) map[graph.NodeID]toca.Color {
	maxC := toca.None
	for _, u := range v1 {
		if m := forb[u].Max(); m > maxC {
			maxC = m
		}
		if c := old[u]; c > maxC {
			maxC = c
		}
	}

	var res matching.Result
	if s != nil {
		nR := int(maxC)
		w := s.WeightMatrix(len(v1), nR)
		for i, u := range v1 {
			row := w[i*nR : (i+1)*nR]
			for j := range row {
				row[j] = wNew
			}
			if c := old[u]; c != toca.None {
				row[c-1] = wOld
			}
			// Forbidden cells last: a forbidden old color stays absent,
			// exactly as the edge build's skip.
			forb[u].ForEach(func(c toca.Color) {
				row[c-1] = 0
			})
		}
		res = s.MaxWeightMatrix(len(v1), nR)
	} else {
		var edges []matching.Edge
		for i, u := range v1 {
			for c := toca.Color(1); c <= maxC; c++ {
				if forb[u].Has(c) {
					continue
				}
				w := wNew
				if c == old[u] {
					w = wOld
				}
				edges = append(edges, matching.Edge{L: i, R: int(c - 1), W: w})
			}
		}
		res = matching.MaxWeight(len(v1), int(maxC), edges)
	}
	out := make(map[graph.NodeID]toca.Color, len(v1))
	next := maxC
	for i, u := range v1 {
		if m := res.MatchL[i]; m >= 0 {
			out[u] = toca.Color(m + 1)
		} else {
			next++
			out[u] = next
		}
	}
	return out
}

func (r *Recoder) outcome(recoded map[graph.NodeID]toca.Color) strategy.Outcome {
	return strategy.Outcome{Recoded: recoded, MaxColor: r.colors.Max()}
}

// MinimalJoinBound returns the paper's Lemma 4.1.1 lower bound on the
// number of 1n ∪ 2n nodes that must be recoded when a node with the
// given partition joins: Σ(K_i − 1) over the old-color classes of
// 1n ∪ 2n. Unassigned nodes contribute no class.
func MinimalJoinBound(assign toca.Assignment, inOrBoth []graph.NodeID) int {
	counts := make(map[toca.Color]int)
	for _, u := range inOrBoth {
		if c := assign[u]; c != toca.None {
			counts[c]++
		}
	}
	bound := 0
	for _, k := range counts {
		bound += k - 1
	}
	return bound
}
