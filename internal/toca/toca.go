// Package toca implements the transmitter-oriented code assignment
// (TOCA) constraint model of the paper's section 2.
//
// An assignment of positive integer codes ("colors") to nodes is valid
// when it satisfies:
//
//	CA1 (primary):  for every edge (u, v), c_u != c_v
//	CA2 (hidden):   for every pair of edges (u, w), (v, w) with u != v,
//	                c_u != c_v
//
// Equivalently, the assignment is a proper coloring of the conflict graph
// C(G) in which u ~ v iff u->v, v->u, or u and v share an out-neighbor.
package toca

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/graph"
)

// Color is a CDMA code index. Valid codes are positive; None marks an
// unassigned node.
type Color int

// None is the zero Color, meaning "no code assigned".
const None Color = 0

// Assignment maps nodes to codes.
type Assignment map[graph.NodeID]Color

// Set writes one node's code; None removes the entry (assignments
// never store explicit None). This is the single write convention every
// externally mutable assignment holder shares.
func (a Assignment) Set(id graph.NodeID, c Color) {
	if c == None {
		delete(a, id)
		return
	}
	a[id] = c
}

// Clone returns a deep copy of a.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for id, col := range a {
		c[id] = col
	}
	return c
}

// MaxColor returns the largest color in use, or None for an empty or
// fully unassigned map.
func (a Assignment) MaxColor() Color {
	max := None
	for _, c := range a {
		if c > max {
			max = c
		}
	}
	return max
}

// ColorCounts returns, for each color in use, the number of nodes holding
// it. Unassigned nodes are skipped.
func (a Assignment) ColorCounts() map[Color]int {
	counts := make(map[Color]int)
	for _, c := range a {
		if c != None {
			counts[c]++
		}
	}
	return counts
}

// DiffCount returns the paper's "number of recodings" between two
// snapshots: the number of nodes in after whose color differs from their
// color in before, where a node absent from before counts as None. A node
// receiving its first color therefore counts as one recoding (the paper
// counts the joiner), while nodes that left the network do not.
func DiffCount(before, after Assignment) int {
	n := 0
	for id, c := range after {
		if before[id] != c {
			n++
		}
	}
	return n
}

// ViolationKind distinguishes CA1 from CA2 violations.
type ViolationKind int

// Violation kinds.
const (
	Primary ViolationKind = iota + 1 // CA1: edge endpoints share a color
	Hidden                           // CA2: two in-neighbors of a node share a color
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case Primary:
		return "CA1"
	case Hidden:
		return "CA2"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation describes a single constraint violation. For Primary, U->V is
// the offending edge. For Hidden, U and V are distinct in-neighbors of
// At sharing a color.
type Violation struct {
	Kind  ViolationKind
	U, V  graph.NodeID
	At    graph.NodeID // receiver where the collision occurs (Hidden only; equals V for Primary)
	Color Color
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Kind == Primary {
		return fmt.Sprintf("CA1: edge %d->%d both color %d", v.U, v.V, v.Color)
	}
	return fmt.Sprintf("CA2: in-neighbors %d,%d of %d both color %d", v.U, v.V, v.At, v.Color)
}

// Verify returns every CA1/CA2 violation of the assignment on g. Nodes
// with no assigned color violate neither condition (they are treated as
// silent). The result is deterministic (sorted by node IDs).
func Verify(g *graph.Digraph, a Assignment) []Violation {
	var out []Violation
	for _, u := range g.Nodes() {
		cu := a[u]
		if cu == None {
			continue
		}
		for _, v := range g.OutNeighbors(u) {
			if a[v] == cu {
				out = append(out, Violation{Kind: Primary, U: u, V: v, At: v, Color: cu})
			}
		}
	}
	for _, w := range g.Nodes() {
		ins := g.InNeighbors(w)
		for i := 0; i < len(ins); i++ {
			ci := a[ins[i]]
			if ci == None {
				continue
			}
			for j := i + 1; j < len(ins); j++ {
				if a[ins[j]] == ci {
					out = append(out, Violation{Kind: Hidden, U: ins[i], V: ins[j], At: w, Color: ci})
				}
			}
		}
	}
	return out
}

// Valid reports whether the assignment satisfies CA1 and CA2 on g.
func Valid(g *graph.Digraph, a Assignment) bool {
	return len(Verify(g, a)) == 0
}

// ConflictNeighbors returns the set of nodes whose color must differ from
// u's under CA1/CA2: u's out-neighbors, u's in-neighbors, and every other
// in-neighbor of each of u's out-neighbors ("co-transmitters").
func ConflictNeighbors(g *graph.Digraph, u graph.NodeID) map[graph.NodeID]struct{} {
	set := make(map[graph.NodeID]struct{})
	g.ForEachOut(u, func(v graph.NodeID) {
		set[v] = struct{}{} // CA1 on u->v
		g.ForEachIn(v, func(x graph.NodeID) {
			if x != u {
				set[x] = struct{}{} // CA2 at v
			}
		})
	})
	g.ForEachIn(u, func(v graph.NodeID) {
		set[v] = struct{}{} // CA1 on v->u
	})
	return set
}

// ConflictNeighborsSorted is ConflictNeighbors with a deterministic
// sorted-slice result, for protocol messages and tests.
func ConflictNeighborsSorted(g *graph.Digraph, u graph.NodeID) []graph.NodeID {
	set := ConflictNeighbors(g, u)
	out := make([]graph.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConflictGraph materializes C(G) as an undirected adjacency map of
// sorted neighbor lists. It needs no symmetrizing pass: v is a conflict
// neighbor of u exactly when u is one of v's (CA1 looks at both edge
// directions, and CA2 pairs share a receiver).
func ConflictGraph(g *graph.Digraph) map[graph.NodeID][]graph.NodeID {
	nodes := g.Nodes()
	adj := make(map[graph.NodeID][]graph.NodeID, len(nodes))
	for _, u := range nodes {
		adj[u] = ConflictNeighborsSorted(g, u)
	}
	return adj
}

// ColorSet is a set of colors, used for forbidden/constraint sets. It is
// backed by a bitmap rather than a hash map: color indices are small
// dense positive integers (bounded by the running max color index), so
// membership is one bit test and insertion one bit set — the dominant
// cost of the Forbidden constraint walk, which revisits each
// co-transmitter once per shared receiver. Construct with NewColorSet;
// the zero value is a valid empty read-only set.
type ColorSet struct {
	b *colorBits
}

// colorBits is the shared backing store: color c occupies bit c-1 of
// words. Sets only grow (Clear resets in place), so max and n are
// maintained incrementally.
type colorBits struct {
	words []uint64
	n     int   // number of distinct colors present
	max   Color // largest color present, None when empty
}

// NewColorSet returns an empty mutable color set.
func NewColorSet() ColorSet {
	return ColorSet{b: &colorBits{}}
}

// Add inserts c (None is ignored). The set must have been created with
// NewColorSet; Add on a zero-value ColorSet panics, matching the old
// map-backed behavior of inserting into a nil map.
func (s ColorSet) Add(c Color) {
	if c <= None {
		return
	}
	w, bit := int(c-1)>>6, uint(c-1)&63
	for w >= len(s.b.words) {
		s.b.words = append(s.b.words, 0)
	}
	if s.b.words[w]&(1<<bit) == 0 {
		s.b.words[w] |= 1 << bit
		s.b.n++
		if c > s.b.max {
			s.b.max = c
		}
	}
}

// Has reports whether c is in the set.
func (s ColorSet) Has(c Color) bool {
	if s.b == nil || c <= None {
		return false
	}
	w := int(c-1) >> 6
	return w < len(s.b.words) && s.b.words[w]&(1<<(uint(c-1)&63)) != 0
}

// Len returns the number of colors in the set.
func (s ColorSet) Len() int {
	if s.b == nil {
		return 0
	}
	return s.b.n
}

// Clear empties the set in place, keeping its capacity.
func (s ColorSet) Clear() {
	if s.b == nil {
		return
	}
	for i := range s.b.words {
		s.b.words[i] = 0
	}
	s.b.n = 0
	s.b.max = None
}

// Max returns the largest color in the set, or None if empty.
func (s ColorSet) Max() Color {
	if s.b == nil {
		return None
	}
	return s.b.max
}

// Sorted returns the set's colors ascending.
func (s ColorSet) Sorted() []Color {
	if s.b == nil {
		return nil
	}
	out := make([]Color, 0, s.b.n)
	for w, word := range s.b.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, Color(w<<6+bits.TrailingZeros64(word)+1))
		}
	}
	return out
}

// UnionWith adds every color of o to s — a word-wise OR, far cheaper
// than re-walking the nodes that produced o. The set must have been
// created with NewColorSet.
func (s ColorSet) UnionWith(o ColorSet) {
	if o.b == nil || o.b.n == 0 {
		return
	}
	for len(s.b.words) < len(o.b.words) {
		s.b.words = append(s.b.words, 0)
	}
	for i, w := range o.b.words {
		if add := w &^ s.b.words[i]; add != 0 {
			s.b.words[i] |= add
			s.b.n += bits.OnesCount64(add)
		}
	}
	if o.b.max > s.b.max {
		s.b.max = o.b.max
	}
}

// ForEach calls fn for every color in the set in ascending order. It is
// Sorted without the allocation — the recoding hot path walks each
// member's forbidden set once per event, and the sets are sparse
// relative to the color range, so iterating set bits beats scanning
// every color for membership.
func (s ColorSet) ForEach(fn func(Color)) {
	if s.b == nil {
		return
	}
	for w, word := range s.b.words {
		for ; word != 0; word &= word - 1 {
			fn(Color(w<<6 + bits.TrailingZeros64(word) + 1))
		}
	}
}

// LowestFree returns the smallest positive color not in the set — the
// "lowest available color" rule used by CP and RecodeOnPowIncrease.
func (s ColorSet) LowestFree() Color {
	if s.b == nil {
		return 1
	}
	for w, word := range s.b.words {
		if word != math.MaxUint64 {
			return Color(w<<6 + bits.TrailingZeros64(^word) + 1)
		}
	}
	return Color(len(s.b.words)<<6 + 1)
}

// Forbidden returns the colors node u may not take, considering only
// constraining nodes outside the exclude set (whose colors are about to
// be reassigned and therefore do not constrain u through their old
// values). Pass a nil exclude map to consider every constraining node.
//
// The constraint walk is fused: instead of materializing the conflict
// neighborhood as a node set first (the profile's dominant allocation on
// the recoding hot path), colors are folded directly into the result.
// Revisiting a co-transmitter through several shared receivers is
// harmless — ColorSet.Add is idempotent.
func Forbidden(g *graph.Digraph, a Assignment, u graph.NodeID, exclude map[graph.NodeID]struct{}) ColorSet {
	set := NewColorSet()
	add := func(v graph.NodeID) {
		if exclude != nil {
			if _, skip := exclude[v]; skip {
				return
			}
		}
		set.Add(a[v])
	}
	g.ForEachOut(u, func(v graph.NodeID) {
		add(v) // CA1 on u->v
		g.ForEachIn(v, func(x graph.NodeID) {
			if x != u {
				add(x) // CA2 at v
			}
		})
	})
	g.ForEachIn(u, add) // CA1 on v->u
	return set
}

// ForbiddenScratch is ForbiddenAll's reusable working memory: the
// receiver and member maps and a pool of color sets, kept across calls
// so a warm constraint walk allocates nothing. One scratch serves one
// caller at a time.
type ForbiddenScratch struct {
	recv map[graph.NodeID]ColorSet // receiver -> in-neighbor colors
	out  map[graph.NodeID]ColorSet // member -> forbidden colors
	pool []ColorSet
	used int // pool[:used] are handed out in the current call
}

// NewForbiddenScratch returns an empty scratch for ForbiddenAll.
func NewForbiddenScratch() *ForbiddenScratch {
	return &ForbiddenScratch{
		recv: make(map[graph.NodeID]ColorSet),
		out:  make(map[graph.NodeID]ColorSet),
	}
}

// set hands out the next pooled color set, emptied.
func (s *ForbiddenScratch) set() ColorSet {
	if s.used == len(s.pool) {
		s.pool = append(s.pool, NewColorSet())
	}
	cs := s.pool[s.used]
	s.used++
	cs.Clear()
	return cs
}

// ForbiddenAll computes Forbidden for every member of v1 in one pass.
// Callers must first lift the members' colors out of the assignment
// (every u in v1 unassigned in a), which is how the recoding uses it:
// members' old colors are about to be reassigned and must not constrain
// each other. That precondition is what makes the sharing sound — the
// CA2 constraint set of a receiver w (the colors of w's in-neighbors)
// no longer depends on WHICH member is asking, so each receiver's
// in-neighbor walk runs once and is folded into every member that
// transmits to w with a word-wise union, instead of being re-walked per
// member (the k² half of the per-event constraint cost; members of a
// join neighborhood share most of their receivers).
//
// The returned map and its sets live in s: they stay valid until the
// next ForbiddenAll call on s, which reuses them.
func ForbiddenAll(s *ForbiddenScratch, g *graph.Digraph, a Assignment, v1 []graph.NodeID) map[graph.NodeID]ColorSet {
	clear(s.recv)
	clear(s.out)
	s.used = 0
	for _, u := range v1 {
		set := s.set()
		g.ForEachOut(u, func(v graph.NodeID) {
			set.Add(a[v]) // CA1 on u->v
			rs, ok := s.recv[v]
			if !ok {
				rs = s.set()
				g.ForEachIn(v, func(x graph.NodeID) { rs.Add(a[x]) })
				s.recv[v] = rs
			}
			set.UnionWith(rs) // CA2 at v (u's own lifted color adds None)
		})
		g.ForEachIn(u, func(v graph.NodeID) { set.Add(a[v]) }) // CA1 on v->u
		s.out[u] = set
	}
	return s.out
}
