package serve

import (
	"math"
	"sort"

	"repro/internal/adhoc"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// View is an immutable point-in-time read snapshot of one session: the
// topology (per-node configurations), every hosted strategy's code
// assignment, and cumulative metrics. The session's writer publishes a
// fresh View after every applied event through an atomic pointer swap,
// so any number of readers query concurrently without taking a lock and
// without ever blocking the writer — a reader that loaded a View keeps a
// consistent state forever, it just stops being the newest one.
//
// Views are layered copy-on-write structures: a large shared base map
// plus a small overlay of recent changes. Publishing an event costs
// O(|overlay| + recoded) — the writer copies only the overlay — and the
// overlay is folded into a fresh base whenever it outgrows ~2*sqrt(n)
// entries, so the amortized per-event cost is O(sqrt(n)) instead of the
// O(n) a full clone would pay. Readers check the overlay first, then the
// base; both maps are frozen at publication.
type View struct {
	seq     int
	nodes   int
	names   []string
	assigns []assignView
	metrics []strategy.Metrics
	topo    topoView
}

// assignView is one strategy's layered assignment. In the overlay,
// toca.None marks a node whose code was removed (it left the network).
type assignView struct {
	base map[graph.NodeID]toca.Color
	over map[graph.NodeID]toca.Color
}

// topoEntry is one overlay slot of the layered topology: the node's
// current configuration, or a tombstone if it left.
type topoEntry struct {
	cfg  adhoc.Config
	gone bool
}

type topoView struct {
	base map[graph.NodeID]adhoc.Config
	over map[graph.NodeID]topoEntry
}

// newView returns the empty initial view for the named strategies.
func newView(names []string) *View {
	v := &View{names: append([]string(nil), names...)}
	v.assigns = make([]assignView, len(names))
	v.metrics = make([]strategy.Metrics, len(names))
	for i := range v.assigns {
		v.assigns[i] = assignView{base: map[graph.NodeID]toca.Color{}, over: map[graph.NodeID]toca.Color{}}
		v.metrics[i].RecodingsByKind = map[strategy.EventKind]int{}
	}
	v.topo = topoView{base: map[graph.NodeID]adhoc.Config{}, over: map[graph.NodeID]topoEntry{}}
	return v
}

// Seq is the number of events folded into this view.
func (v *View) Seq() int { return v.seq }

// NodeCount is the number of nodes in the network.
func (v *View) NodeCount() int { return v.nodes }

// Strategies lists the hosted strategies in session order.
func (v *View) Strategies() []string { return append([]string(nil), v.names...) }

func (v *View) index(name string) int {
	for i, n := range v.names {
		if n == name {
			return i
		}
	}
	return -1
}

// ColorOf returns the named strategy's code for one node (false if the
// strategy is not hosted or the node has no code).
func (v *View) ColorOf(name string, id graph.NodeID) (toca.Color, bool) {
	i := v.index(name)
	if i < 0 {
		return toca.None, false
	}
	a := v.assigns[i]
	if c, ok := a.over[id]; ok {
		return c, c != toca.None
	}
	c, ok := a.base[id]
	return c, ok
}

// Assignment materializes the named strategy's full assignment (a fresh
// map the caller owns). The second result is false if the strategy is
// not hosted.
func (v *View) Assignment(name string) (toca.Assignment, bool) {
	i := v.index(name)
	if i < 0 {
		return nil, false
	}
	a := v.assigns[i]
	out := make(toca.Assignment, len(a.base)+len(a.over))
	for id, c := range a.base {
		out[id] = c
	}
	for id, c := range a.over {
		if c == toca.None {
			delete(out, id)
		} else {
			out[id] = c
		}
	}
	return out, true
}

// MetricsOf returns a copy of the named strategy's cumulative metrics.
func (v *View) MetricsOf(name string) (strategy.Metrics, bool) {
	i := v.index(name)
	if i < 0 {
		return strategy.Metrics{}, false
	}
	m := v.metrics[i]
	m.RecodingsByKind = cloneKinds(m.RecodingsByKind)
	return m, true
}

// Config returns one node's network configuration.
func (v *View) Config(id graph.NodeID) (adhoc.Config, bool) {
	if e, ok := v.topo.over[id]; ok {
		return e.cfg, !e.gone
	}
	cfg, ok := v.topo.base[id]
	return cfg, ok
}

// eachConfig visits every live node exactly once.
func (v *View) eachConfig(fn func(graph.NodeID, adhoc.Config)) {
	for id, e := range v.topo.over {
		if !e.gone {
			fn(id, e.cfg)
		}
	}
	for id, cfg := range v.topo.base {
		if _, shadowed := v.topo.over[id]; !shadowed {
			fn(id, cfg)
		}
	}
}

// Nodes returns the live node IDs, ascending.
func (v *View) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, v.nodes)
	v.eachConfig(func(id graph.NodeID, _ adhoc.Config) { out = append(out, id) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConflictNeighbors returns the CA1/CA2 conflict neighborhood of id,
// ascending, derived geometrically from the view's configurations: v
// conflicts with u when either covers the other (CA1) or both cover a
// common third node (CA2, co-transmitters). Because the interference
// digraph is a pure function of the configurations, this agrees exactly
// with toca.ConflictNeighbors on the live network at the same seq. Cost
// is O(n * out-degree) per query — a read-path computation that touches
// no session state.
func (v *View) ConflictNeighbors(id graph.NodeID) []graph.NodeID {
	cfgU, ok := v.Config(id)
	if !ok {
		return nil
	}
	set := map[graph.NodeID]struct{}{}
	type outNode struct {
		id  graph.NodeID
		cfg adhoc.Config
	}
	var outs []outNode
	v.eachConfig(func(w graph.NodeID, cw adhoc.Config) {
		if w == id {
			return
		}
		if cfgU.Covers(cw.Pos) { // CA1 on u->w
			set[w] = struct{}{}
			outs = append(outs, outNode{w, cw})
		}
		if cw.Covers(cfgU.Pos) { // CA1 on w->u
			set[w] = struct{}{}
		}
	})
	// CA2: any x (other than u) transmitting into one of u's receivers.
	v.eachConfig(func(x graph.NodeID, cx adhoc.Config) {
		if x == id {
			return
		}
		for _, w := range outs {
			if x != w.id && cx.Covers(w.cfg.Pos) {
				set[x] = struct{}{}
				break
			}
		}
	})
	res := make([]graph.NodeID, 0, len(set))
	for w := range set {
		res = append(res, w)
	}
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	return res
}

// ---- Writer-side construction (package-private; Views never mutate
// after publication) ----

// foldThreshold bounds the overlay size before it is folded into a new
// base: ~2*sqrt(base) balances the per-event overlay copy against the
// O(n) fold, for O(sqrt(n)) amortized publication cost.
func foldThreshold(base int) int {
	t := 2 * int(math.Sqrt(float64(base)))
	if t < 32 {
		t = 32
	}
	return t
}

// next builds the successor view after one applied event. postCfg is the
// event node's configuration after the topology change (ignored for
// leaves); outs are the per-strategy outcomes aligned with v.names;
// metrics are the writer's already-updated accumulators.
func (v *View) next(ev strategy.Event, postCfg adhoc.Config, nodes int, outs []strategy.Outcome, metrics []*strategy.Metrics) *View {
	nv := &View{
		seq:     v.seq + 1,
		nodes:   nodes,
		names:   v.names,
		assigns: make([]assignView, len(v.assigns)),
		metrics: make([]strategy.Metrics, len(v.metrics)),
	}

	// Topology overlay.
	tover := make(map[graph.NodeID]topoEntry, len(v.topo.over)+1)
	for id, e := range v.topo.over {
		tover[id] = e
	}
	if ev.Kind == strategy.Leave {
		tover[ev.ID] = topoEntry{gone: true}
	} else {
		tover[ev.ID] = topoEntry{cfg: postCfg}
	}
	nv.topo = topoView{base: v.topo.base, over: tover}
	if len(tover) > foldThreshold(len(v.topo.base)) {
		nv.topo = topoView{base: foldTopo(v.topo.base, tover), over: map[graph.NodeID]topoEntry{}}
	}

	// Per-strategy assignment overlays and metrics.
	for i := range v.assigns {
		aover := make(map[graph.NodeID]toca.Color, len(v.assigns[i].over)+len(outs[i].Recoded)+1)
		for id, c := range v.assigns[i].over {
			aover[id] = c
		}
		for id, c := range outs[i].Recoded {
			aover[id] = c
		}
		if ev.Kind == strategy.Leave {
			aover[ev.ID] = toca.None
		}
		na := assignView{base: v.assigns[i].base, over: aover}
		if len(aover) > foldThreshold(len(v.assigns[i].base)) {
			na = assignView{base: foldAssign(v.assigns[i].base, aover), over: map[graph.NodeID]toca.Color{}}
		}
		nv.assigns[i] = na
		nv.metrics[i] = *metrics[i]
		nv.metrics[i].RecodingsByKind = cloneKinds(metrics[i].RecodingsByKind)
	}
	return nv
}

func foldTopo(base map[graph.NodeID]adhoc.Config, over map[graph.NodeID]topoEntry) map[graph.NodeID]adhoc.Config {
	nb := make(map[graph.NodeID]adhoc.Config, len(base)+len(over))
	for id, cfg := range base {
		nb[id] = cfg
	}
	for id, e := range over {
		if e.gone {
			delete(nb, id)
		} else {
			nb[id] = e.cfg
		}
	}
	return nb
}

func foldAssign(base, over map[graph.NodeID]toca.Color) map[graph.NodeID]toca.Color {
	nb := make(map[graph.NodeID]toca.Color, len(base)+len(over))
	for id, c := range base {
		nb[id] = c
	}
	for id, c := range over {
		if c == toca.None {
			delete(nb, id)
		} else {
			nb[id] = c
		}
	}
	return nb
}

func cloneKinds(m map[strategy.EventKind]int) map[strategy.EventKind]int {
	out := make(map[strategy.EventKind]int, len(m))
	for k, n := range m {
		out[k] = n
	}
	return out
}

// rebuildView materializes a full view from authoritative state — the
// restore path publishes the snapshot state with it before rolling the
// WAL tail forward.
func rebuildView(seq int, net *adhoc.Network, names []string, assigns []toca.Assignment, metrics []*strategy.Metrics) *View {
	v := newView(names)
	v.seq = seq
	v.nodes = net.Size()
	for _, id := range net.Nodes() {
		cfg, _ := net.Config(id)
		v.topo.base[id] = cfg
	}
	for i := range names {
		for id, c := range assigns[i] {
			if c != toca.None {
				v.assigns[i].base[id] = c
			}
		}
		v.metrics[i] = *metrics[i]
		v.metrics[i].RecodingsByKind = cloneKinds(metrics[i].RecodingsByKind)
	}
	return v
}
