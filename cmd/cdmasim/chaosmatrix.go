package main

// The chaos matrix: a seeded sweep of fault scenarios with hard
// oracles, runnable in CI (smoke subset) or nightly (full grid).
//
// Layer 1 — protocol matrix: every (loss, dup, reorder) combination is
// one chaos.Schedule phase driving the dist engine's fault knobs over
// a mixed four-kind event script. Oracles: exact parity with the
// sequential reference (bit-for-bit assignment equality), CA1/CA2
// validity, and bit-identical replay (the same seed run twice must
// produce the same assignment AND the same fault counters).
//
// Layer 2 — cluster partition soak: an in-process 3-member cluster
// (RequireQuorum) whose links run through one chaos.Net. The
// rendezvous primary is partitioned into a minority of one; the soak
// asserts the minority refuses writes (no split-brain ack), the
// majority promotes and keeps serving, and after heal the fleet
// re-converges to a single leader whose state matches the sequential
// reference exactly, with serve_view_seq confirming zero event loss
// through the member's own /metrics endpoint.
//
// Every chaos mutation lands in an NDJSON event log (-chaos-log) so a
// failure reproduces from its seed alone.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/adhoc"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// runChaosMatrix drives both layers and writes the combined NDJSON
// event log. full selects the complete knob grid (27 combos) over the
// CI smoke subset.
func runChaosMatrix(seed uint64, full bool, logPath string, verbose bool) {
	var logw io.Writer = io.Discard
	if logPath != "" {
		f, err := os.Create(logPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		logw = f
	}

	combos := chaosCombos(full)
	phases := make([]chaos.Phase, len(combos))
	for i, c := range combos {
		phases[i] = chaos.Phase{
			Name:    fmt.Sprintf("loss=%.1f dup=%.1f reorder=%.1f", c[0], c[1], c[2]),
			Loss:    c[0],
			Dup:     c[1],
			Reorder: c[2],
		}
	}
	sched := chaos.NewSchedule(seed, phases)

	protoRuns := 0
	for i := range phases {
		for _, proto := range []string{"minim", "cp"} {
			runMatrixPhase(sched, i, proto, seed, verbose)
			protoRuns++
		}
	}
	if err := sched.WriteLog(logw); err != nil {
		fail(err)
	}
	fmt.Printf("chaos matrix    : %d fault combos x 2 protocols = %d runs, each replayed twice bit-identically\n",
		len(phases), protoRuns)
	fmt.Printf("oracles         : exact sequential parity, CA1/CA2, deterministic replay — all held\n")

	runPartitionSoak(seed, logw, verbose)
}

// chaosCombos enumerates the knob grid. The smoke subset covers each
// axis alone at two intensities plus the fully composed corner and the
// zero baseline; the full grid is the cartesian product.
func chaosCombos(full bool) [][3]float64 {
	levels := []float64{0, 0.2, 0.4}
	if full {
		var out [][3]float64
		for _, l := range levels {
			for _, d := range levels {
				for _, r := range levels {
					out = append(out, [3]float64{l, d, r})
				}
			}
		}
		return out
	}
	return [][3]float64{
		{0, 0, 0},
		{0.4, 0, 0},
		{0, 0.4, 0},
		{0, 0, 0.4},
		{0.2, 0.2, 0.2},
		{0.4, 0.4, 0.4},
	}
}

// chaosScript mirrors the protocol test corpus: a mixed event script
// (moves, power changes, joins, leaves) valid against the tracked
// member set.
func chaosScript(rng *xrand.RNG, n, events int, arena float64) []strategy.Event {
	present := make([]graph.NodeID, n)
	for i := range present {
		present[i] = graph.NodeID(i)
	}
	next := graph.NodeID(n)
	var out []strategy.Event
	for len(out) < events {
		switch k := rng.Intn(10); {
		case k < 3 && len(present) > 3:
			id := present[rng.Intn(len(present))]
			out = append(out, strategy.MoveEvent(id, geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)}))
		case k < 6 && len(present) > 3:
			id := present[rng.Intn(len(present))]
			out = append(out, strategy.PowerEvent(id, rng.Uniform(10, 40)))
		case k < 8:
			cfg := adhoc.Config{
				Pos:   geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)},
				Range: rng.Uniform(15, 30),
			}
			out = append(out, strategy.JoinEvent(next, cfg))
			present = append(present, next)
			next++
		default:
			if len(present) <= 3 {
				continue
			}
			i := rng.Intn(len(present))
			out = append(out, strategy.LeaveEvent(present[i]))
			present = append(present[:i], present[i+1:]...)
		}
	}
	return out
}

// chaosBase builds the base population the scripts churn against: a
// Minim-colored network.
func chaosBase(rng *xrand.RNG, n int, arena float64) (*adhoc.Network, toca.Assignment) {
	eng := engine.New()
	r := core.New(eng.Network(), nil)
	eng.Subscribe(r)
	for i := 0; i < n; i++ {
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)},
			Range: rng.Uniform(15, 30),
		}
		if _, err := eng.Apply(strategy.JoinEvent(graph.NodeID(i), cfg)); err != nil {
			fail(err)
		}
	}
	return eng.Network(), r.Assignment()
}

// matrixOutcome is one distributed run's verifiable result.
type matrixOutcome struct {
	assign    toca.Assignment
	dropped   int
	duplicate int
	reordered int
}

// runMatrixPhase runs ONE (combo, protocol) cell: sequential reference,
// distributed run under the phase's faults, parity + validity oracles,
// then a full replay that must reproduce the first run bit-for-bit.
func runMatrixPhase(sched *chaos.Schedule, phase int, proto string, seed uint64, verbose bool) {
	// The corpus is a pure function of (seed, phase, proto) so a failed
	// cell reproduces standalone.
	rng := xrand.New(seed ^ sched.PhaseSeed(phase) ^ uint64(len(proto)))
	n := 10 + rng.Intn(14)
	baseNet, baseAssign := chaosBase(rng, n, 100)
	script := chaosScript(rng, n, 25, 100)

	refEng := engine.Adopt(baseNet.Clone())
	var ref sim.Hosted
	switch proto {
	case "minim":
		ref = core.New(refEng.Network(), baseAssign.Clone())
	case "cp":
		ref = cp.New(refEng.Network(), baseAssign.Clone())
	}
	refEng.Subscribe(ref)
	for i, ev := range script {
		if _, err := refEng.Apply(ev); err != nil {
			fail(fmt.Errorf("chaos matrix: sequential event %d: %w", i, err))
		}
	}
	want := ref.Assignment()

	run := func() matrixOutcome {
		rt := dist.NewRuntime(99, baseNet.Clone(), baseAssign.Clone())
		sched.Apply(phase, rt.Engine, nil)
		for i, ev := range script {
			if err := rt.Start(ev, proto); err != nil {
				fail(fmt.Errorf("chaos matrix phase %d %s: event %d: %w", phase, proto, i, err))
			}
			if err := rt.Engine.Run(1_000_000); err != nil {
				fail(fmt.Errorf("chaos matrix phase %d %s: event %d: %w", phase, proto, i, err))
			}
		}
		if !toca.Valid(rt.Net.Graph(), rt.Assignment()) {
			fail(fmt.Errorf("chaos matrix phase %d %s: CA1/CA2 violated", phase, proto))
		}
		return matrixOutcome{
			assign:    rt.Assignment(),
			dropped:   rt.Engine.Dropped,
			duplicate: rt.Engine.Duplicated,
			reordered: rt.Engine.Reordered,
		}
	}
	first := run()
	if !reflect.DeepEqual(first.assign, want) {
		fail(fmt.Errorf("chaos matrix phase %d %s: distributed assignment diverged from sequential reference (dropped %d, duplicated %d, reordered %d)",
			phase, proto, first.dropped, first.duplicate, first.reordered))
	}
	second := run()
	if !reflect.DeepEqual(first.assign, second.assign) ||
		first.dropped != second.dropped || first.duplicate != second.duplicate || first.reordered != second.reordered {
		fail(fmt.Errorf("chaos matrix phase %d %s: replay from the same seed diverged: counters (%d,%d,%d) vs (%d,%d,%d)",
			phase, proto, first.dropped, first.duplicate, first.reordered, second.dropped, second.duplicate, second.reordered))
	}
	if verbose {
		fmt.Printf("  phase %2d %-5s: parity ok (dropped %d, duplicated %d, reordered %d)\n",
			phase, proto, first.dropped, first.duplicate, first.reordered)
	}
}

// runPartitionSoak is the cluster layer's chaos scenario. See the file
// comment for the story; every assertion calls fail() on violation.
func runPartitionSoak(seed uint64, logw io.Writer, verbose bool) {
	const members = 3
	session := "chaos-soak"
	cnet := chaos.NewNet()

	root, err := os.MkdirTemp("", "cdmasim-chaos-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(root)

	logLevel := obs.LevelError
	if verbose {
		logLevel = obs.LevelInfo
	}
	nodes := make(map[cluster.MemberID]*cluster.Node, members)
	regs := make(map[cluster.MemberID]*obs.Registry, members)
	var order []cluster.MemberID
	for i := 0; i < members; i++ {
		id := cluster.MemberID(fmt.Sprintf("m%d", i))
		reg := obs.NewRegistry()
		n, err := cluster.NewNode(cluster.Config{
			ID: id, Dir: filepath.Join(root, string(id)),
			Replicas: 2, FailAfter: 2, Fanout: 2, Seed: seed + uint64(i),
			Registry:      reg,
			Log:           obs.NewLogger(os.Stderr, logLevel),
			Transport:     cnet.Transport(string(id), nil),
			RequireQuorum: true,
		})
		if err != nil {
			fail(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			fail(err)
		}
		cnet.Register(string(id), n.Addr())
		nodes[id] = n
		regs[id] = reg
		order = append(order, id)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	for _, id := range order[1:] {
		if err := nodes[id].JoinCluster(nodes[order[0]].Addr()); err != nil {
			fail(err)
		}
	}
	tickAll := func(k int) {
		for i := 0; i < k; i++ {
			for _, id := range order {
				nodes[id].Tick()
			}
		}
	}
	shipReconcileAll := func() {
		for _, id := range order {
			nodes[id].ShipAll()
			nodes[id].Reconcile()
		}
	}
	tickAll(3)

	client := &http.Client{Timeout: 10 * time.Second}
	post := func(addr, path string, body interface{}, out interface{}) int {
		b, err := json.Marshal(body)
		if err != nil {
			fail(err)
		}
		resp, err := client.Post("http://"+addr+path, "application/json", bytes.NewReader(b))
		if err != nil {
			fail(fmt.Errorf("POST %s: %w", path, err))
		}
		defer resp.Body.Close()
		if out != nil {
			json.NewDecoder(resp.Body).Decode(out)
		}
		return resp.StatusCode
	}
	applyTo := func(addr string, evs []strategy.Event) int {
		recs := make([]trace.EventRecord, len(evs))
		for i, ev := range evs {
			if recs[i], err = trace.EncodeEvent(ev); err != nil {
				fail(err)
			}
		}
		return post(addr, "/v1/sessions/"+session+"/events", map[string]interface{}{"events": recs}, nil)
	}

	p := workload.Defaults()
	p.N = 30
	script := workload.Churn(seed, p, 60, workload.ChurnWeights{Join: 1, Leave: 1, Move: 3, Power: 2})

	var ri struct {
		Primary struct {
			ID string `json:"id"`
		} `json:"primary"`
	}
	cfg := map[string]interface{}{"strategies": []string{"Minim", "CP", "BBB"}, "sync_every": 1, "segment_bytes": 4096}
	if code := post(nodes[order[0]].Addr(), "/cluster/sessions", map[string]interface{}{"id": session, "config": cfg}, &ri); code != http.StatusCreated {
		fail(fmt.Errorf("chaos soak: create: HTTP %d", code))
	}
	primary := cluster.MemberID(ri.Primary.ID)
	var majority []string
	var majorityIDs []cluster.MemberID
	for _, id := range order {
		if id != primary {
			majority = append(majority, string(id))
			majorityIDs = append(majorityIDs, id)
		}
	}

	k := len(script) * 2 / 3
	if code := applyTo(nodes[primary].Addr(), script[:k]); code != http.StatusOK {
		fail(fmt.Errorf("chaos soak: prefix write: HTTP %d", code))
	}
	shipReconcileAll()

	// Isolate the primary: minority of one on its own side of the cut.
	cnet.Partition([]string{string(primary)}, majority)
	tickAll(4)
	if code := applyTo(nodes[primary].Addr(), script[k:k+1]); code != http.StatusServiceUnavailable {
		fail(fmt.Errorf("chaos soak: minority-side primary answered HTTP %d to a write; split-brain ack", code))
	}
	shipReconcileAll()
	var promoted cluster.MemberID
	for _, id := range majorityIDs {
		if _, ok := nodes[id].Manager().Get(session); ok {
			promoted = id
		}
	}
	if promoted == "" {
		fail(fmt.Errorf("chaos soak: majority side did not promote a replacement"))
	}
	if code := applyTo(nodes[promoted].Addr(), script[k:]); code != http.StatusOK {
		fail(fmt.Errorf("chaos soak: resumed write on majority: HTTP %d", code))
	}
	shipReconcileAll()

	// Heal and drive rounds until one leader — the rendezvous owner —
	// serves the full log again.
	cnet.Heal()
	tickAll(3)
	converged := false
	for i := 0; i < 30 && !converged; i++ {
		tickAll(1)
		shipReconcileAll()
		leaders := 0
		var leader cluster.MemberID
		for _, id := range order {
			if _, ok := nodes[id].Manager().Get(session); ok {
				leaders++
				leader = id
			}
		}
		if leaders == 1 && leader == primary {
			s, _ := nodes[primary].Manager().Get(session)
			converged = s.View().Seq() == len(script)
		}
	}
	if !converged {
		fail(fmt.Errorf("chaos soak: cluster did not re-converge on the rendezvous owner after heal"))
	}

	// Oracle: final state matches the sequential reference bit-for-bit.
	names := []sim.StrategyName{sim.Minim, sim.CP, sim.BBB}
	ref, err := sim.NewEngineSession(names, false)
	if err != nil {
		fail(err)
	}
	if err := ref.Apply(script); err != nil {
		fail(err)
	}
	s, _ := nodes[primary].Manager().Get(session)
	if err := s.Barrier(); err != nil {
		fail(err)
	}
	v := s.View()
	net := adhoc.New()
	for _, nid := range v.Nodes() {
		c, _ := v.Config(nid)
		if err := net.Join(nid, c); err != nil {
			fail(err)
		}
	}
	for _, name := range names {
		rs, _ := ref.StrategyOf(name)
		got, _ := v.Assignment(string(name))
		if !reflect.DeepEqual(got, rs.Assignment()) {
			fail(fmt.Errorf("chaos soak: %s assignment differs from the sequential reference after heal", name))
		}
		if vs := toca.Verify(net.Graph(), got); len(vs) > 0 {
			fail(fmt.Errorf("chaos soak: %s: %d CA1/CA2 violations", name, len(vs)))
		}
	}

	// Zero event loss, proven through the member's own metrics surface.
	mresp, err := client.Get("http://" + nodes[primary].Addr() + "/metrics")
	if err != nil {
		fail(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("chaos soak: scraping healed primary: HTTP %d err %v", mresp.StatusCode, err))
	}
	sc, err := obs.ParseScrape(string(mbody))
	if err != nil {
		fail(err)
	}
	if seq, ok := sc.Value("serve_view_seq", map[string]string{"session": session}); !ok || int(seq) != len(script) {
		fail(fmt.Errorf("chaos soak: serve_view_seq %.0f (found %v), want %d: events lost across the partition", seq, ok, len(script)))
	}

	if err := cnet.WriteLog(logw); err != nil {
		fail(err)
	}
	fmt.Printf("partition soak  : minority-side primary refused writes (503), majority promoted %s, healed fleet re-converged on %s at seq %d\n",
		promoted, primary, len(script))
	fmt.Printf("soak oracles    : zero acked-write loss (serve_view_seq), bit-exact vs sequential reference, CA1/CA2 — all held\n")
}
