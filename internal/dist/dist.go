// Package dist is the distributed message-passing runtime for the
// paper's join protocols: the sequential RecodeOnJoin (Minim) and the
// CP selection rule, executed as explicit message exchanges between
// node actors over a simulated delivery engine.
//
// The runtime exists for two claims the repository checks:
//
//   - Protocol equivalence (cmd/verify I8): for any base network and
//     joiner, the distributed Minim and CP joins assign exactly the
//     colors the sequential algorithms assign. Both protocols gather
//     their inputs (partition membership, old colors, externally
//     forbidden colors) through messages, then apply the identical
//     decision procedures (core.Solve, lowest-free selection), so
//     equality holds by construction and is re-verified at runtime.
//   - Message locality (experiments.ByID("m1")): the number of messages a
//     join exchanges tracks the joiner's neighborhood size (node
//     density), not the network size N — the protocols are local.
//
// All four reconfiguration events run as protocols: joins and moves
// coordinate the full gather/solve/assign (or token-pass) exchange,
// power increases run the node-coordinated re-selection, and leaves and
// power decreases are message-free by the removal theorems. Every
// protocol converges to exact sequential parity under the engine's
// fault injection (lossy links with retransmission, at-least-once
// duplication with receiver-side dedup, and their composition).
package dist

import (
	"fmt"
	"sort"

	"repro/internal/adhoc"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// message is one in-flight protocol message. The handler runs when the
// engine delivers it; From/To/Kind exist for tracing and accounting,
// drops counts how many delivery attempts were lost so far, and seq is
// the sender-assigned sequence number the receiver-side duplicate filter
// keys on.
type message struct {
	From, To graph.NodeID
	Kind     string
	handler  func()
	drops    int
	defers   int
	seq      int
}

// Engine is the FIFO delivery engine: messages are delivered in send
// order, one at a time (the sequential-consistency setting of the
// paper's protocol arguments). Delivered counts every handler-running
// delivery across the runtime's lifetime; Dropped counts lost attempts
// in lossy mode; Duplicated counts injected duplicate copies and Deduped
// the deliveries the receiver-side filter suppressed.
type Engine struct {
	queue      []message
	Delivered  int
	Dropped    int
	Duplicated int
	Deduped    int
	Reordered  int
	nextSeq    int
	dropRng    *xrand.RNG
	dropProb   float64
	maxDrops   int
	dupRng     *xrand.RNG
	dupProb    float64
	maxDups    int
	reordRng   *xrand.RNG
	reordProb  float64
	maxDefers  int
	seen       map[int]struct{}
}

// Unreliable switches delivery to a lossy link: each attempt is lost
// with probability p (deterministically from seed), and a lost message
// is retransmitted at the back of the queue — the sender's
// timeout-and-resend path. Retransmission reorders the stream relative
// to FIFO, so the protocols' convergence must not depend on delivery
// order; the fault-injection tests assert exactly that. A message is
// dropped at most maxDrops times before the link lets it through,
// bounding the retry budget (the paper's protocols assume eventual
// delivery, not a bounded-loss link).
func (e *Engine) Unreliable(seed uint64, p float64, maxDrops int) {
	e.dropRng = xrand.New(seed)
	e.dropProb = p
	e.maxDrops = maxDrops
}

// Duplicate switches delivery to an at-least-once link: after each
// successful delivery the link re-delivers a copy with probability p
// (deterministically from seed), up to maxDups copies per message. The
// protocol handlers are reply-counting state machines — an unfiltered
// duplicate "color!" would decrement a coordinator's reply count twice
// and corrupt the gathered inputs — so the engine runs the standard
// exactly-once filter at the receiver: every message carries a
// sender-assigned sequence number, and a delivery whose number was
// already handled is counted in Deduped and suppressed. That filter is
// what makes every handler idempotent; the fault-injection tests assert
// both protocols still converge to exact sequential parity, and that
// duplicates actually flowed (Duplicated > 0). Compose with Unreliable
// for a link that both loses and repeats messages.
func (e *Engine) Duplicate(seed uint64, p float64, maxDups int) {
	e.dupRng = xrand.New(seed)
	e.dupProb = p
	e.maxDups = maxDups
	if e.seen == nil {
		e.seen = make(map[int]struct{})
	}
}

// Reorder switches delivery to an out-of-order link: when a message
// reaches the head of the queue it is, with probability p
// (deterministically from seed), deferred — reinserted at a random
// later queue position — instead of delivered. Deferral breaks FIFO
// outright (not merely via retransmission, as Unreliable does), which
// is the delivery model the paper's convergence arguments must survive:
// the protocols' reply-counting state machines gather a fixed set of
// inputs and never depend on arrival order. A message is deferred at
// most maxDefers times before the link delivers it, so eventual
// delivery still holds. Deferred attempts are counted in Reordered.
// Compose with Unreliable and Duplicate for the full chaos link.
func (e *Engine) Reorder(seed uint64, p float64, maxDefers int) {
	e.reordRng = xrand.New(seed)
	e.reordProb = p
	e.maxDefers = maxDefers
}

// send enqueues a message for later delivery, stamping its sequence
// number.
func (e *Engine) send(m message) {
	m.seq = e.nextSeq
	e.nextSeq++
	e.queue = append(e.queue, m)
}

// resend re-enqueues an existing message (retransmission or duplicate
// copy) without assigning a fresh sequence number.
func (e *Engine) resend(m message) { e.queue = append(e.queue, m) }

// Run delivers queued messages (including ones enqueued by handlers run
// along the way) until the queue drains. It errors if more than limit
// delivery attempts are needed — a guard against protocol livelock.
func (e *Engine) Run(limit int) error {
	for n := 0; len(e.queue) > 0; n++ {
		if n >= limit {
			return fmt.Errorf("dist: message limit %d exceeded with %d still queued", limit, len(e.queue))
		}
		m := e.queue[0]
		e.queue = e.queue[1:]
		if e.dropRng != nil && m.drops < e.maxDrops && e.dropRng.Float64() < e.dropProb {
			// Lost in flight: the sender times out and retransmits.
			e.Dropped++
			m.drops++
			e.resend(m)
			continue
		}
		if e.reordRng != nil && m.defers < e.maxDefers && len(e.queue) > 0 && e.reordRng.Float64() < e.reordProb {
			// Overtaken in flight: the message slips behind at least one
			// later message (uniform random position in the rest of the
			// queue), bounded per message so delivery stays eventual.
			e.Reordered++
			m.defers++
			at := 1 + e.reordRng.Intn(len(e.queue))
			e.queue = append(e.queue, message{})
			copy(e.queue[at+1:], e.queue[at:])
			e.queue[at] = m
			continue
		}
		if e.seen != nil {
			if _, dup := e.seen[m.seq]; dup {
				// Receiver-side exactly-once filter: already handled.
				e.Deduped++
				continue
			}
			e.seen[m.seq] = struct{}{}
		}
		e.Delivered++
		m.handler()
		if e.dupRng != nil {
			// At-least-once link: the copy keeps its sequence number, so
			// the receiver filter (not luck) is what preserves semantics.
			for c := 0; c < e.maxDups && e.dupRng.Float64() < e.dupProb; c++ {
				e.Duplicated++
				cp := m
				cp.drops = 0
				e.resend(cp)
			}
		}
	}
	return nil
}

// Node is one protocol actor: a network member holding its own code.
type Node struct {
	id    graph.NodeID
	color toca.Color
}

// Color returns the node's current code.
func (n *Node) Color() toca.Color { return n.color }

// Runtime hosts the actors over a shared network model. The network is
// adopted, not copied: StartJoin performs the physical join on it (the
// radio-level fact the protocol then reacts to).
type Runtime struct {
	Net    *adhoc.Network
	Engine *Engine
	nodes  map[graph.NodeID]*Node
	rng    *xrand.RNG
}

// NewRuntime wraps an existing network and assignment: every current
// member becomes an actor holding its assigned code. The seed feeds
// future nondeterministic delivery orders; the default engine is FIFO
// and deterministic.
func NewRuntime(seed uint64, net *adhoc.Network, assign toca.Assignment) *Runtime {
	rt := &Runtime{
		Net:    net,
		Engine: &Engine{},
		nodes:  make(map[graph.NodeID]*Node, net.Size()),
		rng:    xrand.New(seed),
	}
	for _, id := range net.Nodes() {
		rt.nodes[id] = &Node{id: id, color: assign[id]}
	}
	return rt
}

// Node returns the actor for id, or nil if absent.
func (rt *Runtime) Node(id graph.NodeID) *Node { return rt.nodes[id] }

// Assignment collects every actor's current code into an assignment
// snapshot (unassigned actors are skipped, matching toca semantics).
func (rt *Runtime) Assignment() toca.Assignment {
	a := make(toca.Assignment, len(rt.nodes))
	for id, n := range rt.nodes {
		if n.color != toca.None {
			a[id] = n.color
		}
	}
	return a
}

// StartJoin performs the physical join of a new node and enqueues the
// distributed recoding protocol for it: "minim" runs the matching-based
// RecodeOnJoin, "cp" the CP highest-identity-first selection. Drive the
// engine (Engine.Run) to completion afterwards.
func (rt *Runtime) StartJoin(id graph.NodeID, cfg adhoc.Config, proto string) error {
	if rt.Net.Has(id) {
		return fmt.Errorf("dist: node %d already in network", id)
	}
	part := rt.Net.LocalPartitionFor(id, cfg)
	if err := rt.Net.Join(id, cfg); err != nil {
		return err
	}
	joiner := &Node{id: id}
	rt.nodes[id] = joiner
	switch proto {
	case "minim":
		rt.startMinimJoin(joiner, part)
	case "cp":
		rt.startCPJoin(joiner, part)
	default:
		return fmt.Errorf("dist: unknown protocol %q", proto)
	}
	return nil
}

// StartLeave performs the physical leave of a node. No protocol runs:
// removals never create conflicts (Theorem 4.3.3; the CP baseline
// agrees), so neighbors merely observe the departure and zero messages
// are exchanged.
func (rt *Runtime) StartLeave(id graph.NodeID) error {
	if !rt.Net.Has(id) {
		return fmt.Errorf("dist: node %d not in network", id)
	}
	if err := rt.Net.Leave(id); err != nil {
		return err
	}
	delete(rt.nodes, id)
	return nil
}

// StartMove performs the physical move of a node and enqueues the
// distributed recoding protocol for it. Both protocols treat movement
// as a join at the new position in which the mover keeps its old color
// as a candidate (Theorem 4.4.1 for Minim; the charitable CP reading of
// the paper's Fig 9): the mover coordinates the same message exchange a
// joiner would, its old color riding along as a weight-3 edge (minim)
// or a re-selectable current color (cp). Drive the engine afterwards.
func (rt *Runtime) StartMove(id graph.NodeID, pos geom.Point, proto string) error {
	cfg, ok := rt.Net.Config(id)
	if !ok {
		return fmt.Errorf("dist: node %d not in network", id)
	}
	if proto != "minim" && proto != "cp" {
		return fmt.Errorf("dist: unknown protocol %q", proto)
	}
	dst := cfg
	dst.Pos = pos
	part := rt.Net.LocalPartitionFor(id, dst)
	if err := rt.Net.Move(id, pos); err != nil {
		return err
	}
	if proto == "minim" {
		rt.startMinimJoin(rt.nodes[id], part)
	} else {
		rt.startCPJoin(rt.nodes[id], part)
	}
	return nil
}

// StartPower performs the physical range change of a node and enqueues
// the distributed recoding protocol for it. Decreases only remove
// constraints — nobody recodes and no messages flow. For an increase,
// every new constraint involves the node itself (section 4.2), so the
// node coordinates: minim re-selects only its own color if now
// conflicted (RecodeOnPowIncrease, Fig 5); cp discovers which
// new-constraint peers hold its color and token-passes over that group
// plus itself. Drive the engine afterwards.
func (rt *Runtime) StartPower(id graph.NodeID, newRange float64, proto string) error {
	cfg, ok := rt.Net.Config(id)
	if !ok {
		return fmt.Errorf("dist: node %d not in network", id)
	}
	if proto != "minim" && proto != "cp" {
		return fmt.Errorf("dist: unknown protocol %q", proto)
	}
	increase := newRange > cfg.Range
	var before map[graph.NodeID]struct{}
	if increase && proto == "cp" {
		// Only cp needs the pre-increase neighborhood (its group is the
		// set difference); minim consults the full post-increase set.
		before = rt.Net.ConflictNeighbors(id)
	}
	if err := rt.Net.SetRange(id, newRange); err != nil {
		return err
	}
	if !increase {
		return nil
	}
	if proto == "minim" {
		rt.startMinimPower(rt.nodes[id])
	} else {
		rt.startCPPower(rt.nodes[id], before, rt.Net.ConflictNeighbors(id))
	}
	return nil
}

// Start dispatches one reconfiguration event to the matching protocol
// run — the script-level entry the parity tests drive mixed workloads
// through.
func (rt *Runtime) Start(ev strategy.Event, proto string) error {
	switch ev.Kind {
	case strategy.Join:
		return rt.StartJoin(ev.ID, ev.Cfg, proto)
	case strategy.Leave:
		return rt.StartLeave(ev.ID)
	case strategy.Move:
		return rt.StartMove(ev.ID, ev.Pos, proto)
	case strategy.PowerChange:
		return rt.StartPower(ev.ID, ev.R, proto)
	default:
		return fmt.Errorf("dist: unknown event kind %v", ev.Kind)
	}
}

// startMinimPower runs the node's side of RecodeOnPowIncrease: query
// every conflict neighbor for its color, and re-select the lowest free
// color only if the current one is now forbidden — the exact decision
// rule of the sequential Fig 5 procedure, fed by messages.
func (rt *Runtime) startMinimPower(node *Node) {
	peers := rt.conflictOutside(node.id, nil)
	forb := toca.NewColorSet()
	decide := func() {
		if node.color != toca.None && !forb.Has(node.color) {
			return // still valid: minim recodes nobody
		}
		node.color = forb.LowestFree()
	}
	replies := len(peers)
	if replies == 0 {
		decide()
		return
	}
	for _, v := range peers {
		v := v
		rt.Engine.send(message{From: node.id, To: v, Kind: "color?", handler: func() {
			c := rt.nodes[v].color
			rt.Engine.send(message{From: v, To: node.id, Kind: "color!", handler: func() {
				forb.Add(c)
				replies--
				if replies == 0 {
					decide()
				}
			}})
		}})
	}
}

// startCPPower runs the CP power-increase extension: the node queries
// each peer it gained a constraint against; those holding its color
// form the re-selection group, which token-passes (highest identity
// first) together with the node itself, exactly as cp.reselect orders
// the sequential run.
func (rt *Runtime) startCPPower(node *Node, before, after map[graph.NodeID]struct{}) {
	var peers []graph.NodeID
	for v := range after {
		if _, old := before[v]; !old {
			peers = append(peers, v)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	if len(peers) == 0 {
		return
	}
	myColor := node.color
	var group []graph.NodeID
	replies := len(peers)
	finish := func() {
		if len(group) == 0 {
			return // no conflicts: even the node keeps its color
		}
		st := &cpJoin{rt: rt, joiner: node}
		st.order = append(group, node.id)
		sort.Slice(st.order, func(i, j int) bool { return st.order[i] > st.order[j] })
		st.advance()
	}
	for _, v := range peers {
		v := v
		rt.Engine.send(message{From: node.id, To: v, Kind: "color?", handler: func() {
			c := rt.nodes[v].color
			rt.Engine.send(message{From: v, To: node.id, Kind: "color!", handler: func() {
				if myColor != toca.None && c == myColor {
					group = append(group, v)
				}
				replies--
				if replies == 0 {
					finish()
				}
			}})
		}})
	}
}

// conflictOutside returns u's CA1/CA2 conflict neighbors not in excl,
// ascending — the peers whose colors constrain u.
func (rt *Runtime) conflictOutside(u graph.NodeID, excl map[graph.NodeID]struct{}) []graph.NodeID {
	var out []graph.NodeID
	for v := range rt.Net.ConflictNeighbors(u) {
		if _, skip := excl[v]; !skip {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---- Minim join protocol ----
//
// The joiner coordinates (it is the node with fresh knowledge of the
// event, matching the paper's protocol sketch):
//
//  1. collect:   joiner -> each member of V1 = 1n ∪ 2n ∪ {n}
//  2. color?/!:  each member <-> its conflict neighbors outside V1
//  3. report:    member -> joiner (old color + forbidden set)
//  4. assign:    joiner -> members whose code changes
//
// Step 2 happens entirely before any assignment changes, so the
// gathered inputs equal the sequential recodeLocal's, and core.Solve
// returns the identical coloring.

// minimJoin is the coordinator state for one Minim join.
type minimJoin struct {
	rt      *Runtime
	joiner  *Node
	v1      []graph.NodeID
	excl    map[graph.NodeID]struct{}
	old     map[graph.NodeID]toca.Color
	forb    map[graph.NodeID]toca.ColorSet
	pending int
}

func (rt *Runtime) startMinimJoin(joiner *Node, part adhoc.Partition) {
	st := &minimJoin{
		rt:     rt,
		joiner: joiner,
		v1:     append(part.InOrBoth(), joiner.id),
		old:    make(map[graph.NodeID]toca.Color),
		forb:   make(map[graph.NodeID]toca.ColorSet),
	}
	st.excl = make(map[graph.NodeID]struct{}, len(st.v1))
	for _, u := range st.v1 {
		st.excl[u] = struct{}{}
	}
	st.pending = len(st.v1)
	for _, u := range st.v1 {
		u := u
		if u == joiner.id {
			// The coordinator gathers its own constraints without a
			// self-addressed collect message.
			st.gather(u)
			continue
		}
		rt.Engine.send(message{From: joiner.id, To: u, Kind: "collect", handler: func() {
			st.gather(u)
		}})
	}
}

// gather runs member u's side of the collect phase: query every
// conflict neighbor outside V1 for its color, then report to the
// coordinator.
func (st *minimJoin) gather(u graph.NodeID) {
	rt := st.rt
	peers := rt.conflictOutside(u, st.excl)
	forb := toca.NewColorSet()
	replies := len(peers)
	if replies == 0 {
		st.report(u, forb)
		return
	}
	for _, v := range peers {
		v := v
		rt.Engine.send(message{From: u, To: v, Kind: "color?", handler: func() {
			c := rt.nodes[v].color
			rt.Engine.send(message{From: v, To: u, Kind: "color!", handler: func() {
				forb.Add(c)
				replies--
				if replies == 0 {
					st.report(u, forb)
				}
			}})
		}})
	}
}

// report delivers u's (old color, forbidden set) to the coordinator and,
// once every member reported, solves and distributes the new coloring.
func (st *minimJoin) report(u graph.NodeID, forb toca.ColorSet) {
	rt := st.rt
	finish := func() {
		st.old[u] = rt.nodes[u].color
		st.forb[u] = forb
		st.pending--
		if st.pending > 0 {
			return
		}
		newColors := core.Solve(st.v1, st.old, st.forb)
		for _, w := range st.v1 {
			w, c := w, newColors[w]
			if c == rt.nodes[w].color {
				continue
			}
			if w == st.joiner.id {
				st.joiner.color = c
				continue
			}
			rt.Engine.send(message{From: st.joiner.id, To: w, Kind: "assign", handler: func() {
				rt.nodes[w].color = c
			}})
		}
	}
	if u == st.joiner.id {
		finish() // coordinator-local, no message
		return
	}
	rt.Engine.send(message{From: u, To: st.joiner.id, Kind: "report", handler: finish})
}

// ---- CP join protocol ----
//
// The joiner coordinates a token pass over the re-selection group:
//
//  1. color?/!: joiner <-> each member of 1n ∪ 2n (discover colors)
//  2. token:    joiner -> highest-identity undecided member
//  3. color?/!: token holder <-> conflict neighbors outside the
//     still-undecided remainder
//  4. done:     token holder -> joiner; repeat from 2
//
// Each holder picks the lowest color its decided constraints allow —
// the CP rule — and earlier holders' picks are visible to later ones
// through fresh color queries, exactly as in cp.reselect.

// cpJoin is the coordinator state for one CP join.
type cpJoin struct {
	rt      *Runtime
	joiner  *Node
	members []graph.NodeID // 1n ∪ 2n, pending discovery
	colors  map[graph.NodeID]toca.Color
	order   []graph.NodeID // re-selection group, decreasing identity
	next    int
}

func (rt *Runtime) startCPJoin(joiner *Node, part adhoc.Partition) {
	st := &cpJoin{
		rt:      rt,
		joiner:  joiner,
		members: part.InOrBoth(),
		colors:  make(map[graph.NodeID]toca.Color),
	}
	if len(st.members) == 0 {
		st.buildGroup()
		return
	}
	replies := len(st.members)
	for _, u := range st.members {
		u := u
		rt.Engine.send(message{From: joiner.id, To: u, Kind: "color?", handler: func() {
			c := rt.nodes[u].color
			rt.Engine.send(message{From: u, To: joiner.id, Kind: "color!", handler: func() {
				st.colors[u] = c
				replies--
				if replies == 0 {
					st.buildGroup()
				}
			}})
		}})
	}
}

// buildGroup computes the duplicated-color re-selection group plus the
// joiner, highest identity first, and starts the token pass.
func (st *cpJoin) buildGroup() {
	counts := make(map[toca.Color]int)
	for _, u := range st.members {
		if c := st.colors[u]; c != toca.None {
			counts[c]++
		}
	}
	seen := make(map[graph.NodeID]struct{})
	for _, u := range st.members {
		if c := st.colors[u]; c != toca.None && counts[c] >= 2 {
			if _, dup := seen[u]; !dup {
				seen[u] = struct{}{}
				st.order = append(st.order, u)
			}
		}
	}
	st.order = append(st.order, st.joiner.id)
	sort.Slice(st.order, func(i, j int) bool { return st.order[i] > st.order[j] })
	st.advance()
}

// advance hands the token to the next undecided member (or finishes).
func (st *cpJoin) advance() {
	if st.next >= len(st.order) {
		return
	}
	u := st.order[st.next]
	st.next++
	undecided := make(map[graph.NodeID]struct{}, len(st.order)-st.next)
	for _, w := range st.order[st.next:] {
		undecided[w] = struct{}{}
	}
	if u == st.joiner.id {
		st.selectColor(u, undecided) // coordinator holds the token itself
		return
	}
	st.rt.Engine.send(message{From: st.joiner.id, To: u, Kind: "token", handler: func() {
		st.selectColor(u, undecided)
	}})
}

// selectColor runs the token holder's lowest-free selection: query every
// conflict neighbor outside the undecided remainder, pick, and yield the
// token.
func (st *cpJoin) selectColor(u graph.NodeID, undecided map[graph.NodeID]struct{}) {
	rt := st.rt
	peers := rt.conflictOutside(u, undecided)
	forb := toca.NewColorSet()
	decide := func() {
		rt.nodes[u].color = forb.LowestFree()
		if u == st.joiner.id {
			st.advance() // coordinator-local, no done message
			return
		}
		rt.Engine.send(message{From: u, To: st.joiner.id, Kind: "done", handler: st.advance})
	}
	replies := len(peers)
	if replies == 0 {
		decide()
		return
	}
	for _, v := range peers {
		v := v
		rt.Engine.send(message{From: u, To: v, Kind: "color?", handler: func() {
			c := rt.nodes[v].color
			rt.Engine.send(message{From: v, To: u, Kind: "color!", handler: func() {
				forb.Add(c)
				replies--
				if replies == 0 {
					decide()
				}
			}})
		}})
	}
}
