package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"repro/internal/adhoc"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// runClusterLoad is the cluster load-generator mode: an in-process
// 3-member cluster over real HTTP, a client that keeps writing through
// a mid-run primary kill, a READER that spreads its traffic across the
// owner set (half of it lands on follower-served reads) with chained
// min_seq monotonicity, and a verification pass that the survivors'
// state matches a single-process reference run exactly — including
// CA1/CA2 re-checked entirely through follower-served reads.
//
// The client behaves like a real one: it resolves the primary via
// /cluster/route (and read targets via ?read=1), follows 307
// redirects, retries on 429, and — after the failover — re-reads the
// promoted session's sequence number from a primary-served status and
// resumes its script from there. The run fails loudly if the promoted
// state, the finished run, or any follower-served answer diverges.
func runClusterLoad(p workload.Params, churn, hotspots int, seed uint64, replicas int, verbose bool) {
	const members = 3
	session := "cluster-load"
	script, err := buildScript(seed, p, churn, hotspots)
	if err != nil {
		fail(err)
	}
	if len(script) < 40 {
		fail(fmt.Errorf("cluster load needs a longer script (%d events); raise -n or -churn", len(script)))
	}

	root, err := os.MkdirTemp("", "cdmasim-cluster-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(root)

	// Boot the fleet, each member instrumented like a production
	// cdmaserved: its /metrics endpoint is how the smoke verifies the
	// failover at the end.
	logLevel := slog.LevelError
	if verbose {
		logLevel = slog.LevelInfo
	}
	nodes := make(map[cluster.MemberID]*cluster.Node, members)
	var order []cluster.MemberID
	for i := 0; i < members; i++ {
		id := cluster.MemberID(fmt.Sprintf("m%d", i))
		n, err := cluster.NewNode(cluster.Config{
			ID: id, Dir: filepath.Join(root, string(id)),
			Replicas: replicas, FailAfter: 2, Fanout: 2, Seed: seed + uint64(i),
			Registry: obs.NewRegistry(),
			Trace:    obs.NewTraceHub(obs.DefaultTraceRing),
			Log:      obs.NewLogger(os.Stderr, logLevel),
		})
		if err != nil {
			fail(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			fail(err)
		}
		nodes[id] = n
		order = append(order, id)
	}
	crashed := map[cluster.MemberID]bool{}
	defer func() {
		for id, n := range nodes {
			if !crashed[id] {
				n.Stop()
			}
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
				if !crashed[id] {
					nodes[id].Tick()
				}
			}
		}
	}
	background := func() {
		for _, id := range order {
			if !crashed[id] {
				nodes[id].ShipAll()
				nodes[id].Reconcile()
			}
		}
	}
	tickAll(3)

	client := &http.Client{Timeout: 10 * time.Second}
	// rdClient surfaces 307s instead of following them, so reads show
	// exactly which member served them (follower reads are direct).
	rdClient := &http.Client{
		Timeout: 10 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	anyAddr := func() string {
		for _, id := range order {
			if !crashed[id] {
				return nodes[id].Addr()
			}
		}
		fail(fmt.Errorf("no live members"))
		return ""
	}
	postJSON := func(path string, body interface{}, out interface{}) (int, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post("http://"+anyAddr()+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	// Create the replicated session through any member.
	var ri struct {
		Primary struct {
			ID string `json:"id"`
		} `json:"primary"`
	}
	cfg := map[string]interface{}{
		"strategies": []string{"Minim", "CP", "BBB"}, "sync_every": 1,
		// Small segments + a compaction budget: the smoke exercises
		// barrier-coordinated truncation and snapshot catch-up, not
		// just append-only shipping.
		"segment_bytes": 4096, "compact_every": 64,
	}
	if code, err := postJSON("/cluster/sessions", map[string]interface{}{"id": session, "config": cfg}, &ri); err != nil || code != http.StatusCreated {
		fail(fmt.Errorf("create: code %d err %v", code, err))
	}
	primary := cluster.MemberID(ri.Primary.ID)
	start := time.Now()

	// The reader: resolve a read target (round-robin over the owner
	// set: the primary AND its followers), read the session status with
	// the last observed seq as min_seq, and insist on monotonicity.
	// 307 (handover) and 503 (retryable failover window) are legal;
	// going backwards never is.
	lastSeen, reads, followerReads := 0, 0, 0
	readOnce := func() {
		var route struct {
			Read *struct {
				Addr string `json:"addr"`
			} `json:"read"`
		}
		resp, err := client.Get("http://" + anyAddr() + "/cluster/route?read=1&session=" + session)
		if err != nil {
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&route)
		resp.Body.Close()
		if err != nil || route.Read == nil {
			return
		}
		rr, err := rdClient.Get(fmt.Sprintf("http://%s/v1/sessions/%s?min_seq=%d&wait_ms=100", route.Read.Addr, session, lastSeen))
		if err != nil {
			return // routed member just died; a real client retries
		}
		defer rr.Body.Close()
		switch rr.StatusCode {
		case http.StatusOK:
			var st struct {
				Seq int `json:"seq"`
			}
			if err := json.NewDecoder(rr.Body).Decode(&st); err != nil {
				fail(err)
			}
			if st.Seq < lastSeen {
				fail(fmt.Errorf("reader saw seq %d after %d: monotonic reads violated", st.Seq, lastSeen))
			}
			lastSeen = st.Seq
			reads++
			if rr.Header.Get("X-Read-From") == "follower" {
				followerReads++
			}
		case http.StatusTemporaryRedirect, http.StatusServiceUnavailable:
			// handover or retryable window
		default:
			fail(fmt.Errorf("reader got HTTP %d; only 200/307/503 are legal", rr.StatusCode))
		}
	}

	// The write loop: apply in small batches (retrying 429s), with the
	// background loops running between batches; kill the primary
	// mid-script and keep writing.
	rng := xrand.New(seed + 99)
	killAt := len(script) / 2
	applied, rejected := 0, 0
	applyBatch := func(evs []strategy.Event) {
		recs := make([]trace.EventRecord, len(evs))
		for i, ev := range evs {
			if recs[i], err = trace.EncodeEvent(ev); err != nil {
				fail(err)
			}
		}
		pending := recs
		for len(pending) > 0 {
			var out struct {
				Applied int    `json:"applied"`
				Error   string `json:"error"`
			}
			code, err := postJSON("/v1/sessions/"+session+"/events", map[string]interface{}{"events": pending}, &out)
			if err != nil {
				fail(err)
			}
			switch code {
			case http.StatusOK:
				applied += out.Applied
				pending = nil
			case http.StatusTooManyRequests:
				rejected++
				applied += out.Applied
				pending = pending[out.Applied:]
				time.Sleep(200 * time.Microsecond)
			default:
				fail(fmt.Errorf("apply: HTTP %d (%s)", code, out.Error))
			}
		}
	}
	for applied < killAt {
		n := 1 + rng.Intn(8)
		if applied+n > killAt {
			n = killAt - applied
		}
		applyBatch(script[applied : applied+n])
		if rng.Float64() < 0.5 {
			background()
		}
		if rng.Float64() < 0.3 {
			tickAll(1)
		}
		if rng.Float64() < 0.5 {
			readOnce()
		}
	}

	// Kill the primary mid-run.
	nodes[primary].Crash()
	crashed[primary] = true
	if verbose {
		fmt.Printf("  killed primary %s at event %d\n", primary, applied)
	}
	tickAll(4)
	background()

	// The client re-reads the promoted sequence number from a
	// PRIMARY-served status (no X-Read-From tag) and resumes. A
	// follower-served status reports the replica's own applied seq —
	// fine for reads, but resuming writes from it would double-apply
	// whatever the replica had not yet been shipped.
	var st struct {
		Seq int `json:"seq"`
	}
	gotPrimary := false
	for _, id := range order {
		if crashed[id] {
			continue
		}
		resp, err := client.Get("http://" + nodes[id].Addr() + "/v1/sessions/" + session)
		if err != nil {
			continue
		}
		ok := resp.StatusCode == http.StatusOK && resp.Header.Get("X-Read-From") == ""
		if ok {
			err = json.NewDecoder(resp.Body).Decode(&st)
		}
		resp.Body.Close()
		if ok && err == nil {
			gotPrimary = true
			break
		}
	}
	if !gotPrimary {
		fail(fmt.Errorf("no primary-served session status after failover (promotion or routing failed)"))
	}
	if st.Seq > applied {
		fail(fmt.Errorf("promoted seq %d beyond applied %d", st.Seq, applied))
	}
	if verbose {
		fmt.Printf("  promoted at acked offset %d (%d accepted-but-unacked events resubmitted)\n", st.Seq, applied-st.Seq)
	}
	resumedFrom := st.Seq
	for i := resumedFrom; i < len(script); i += 16 {
		end := min(i+16, len(script))
		applyBatch(script[i:end])
		if rng.Float64() < 0.5 {
			background()
		}
		if rng.Float64() < 0.5 {
			readOnce()
		}
	}
	background()
	background() // a second round completes any pending compaction step
	elapsed := time.Since(start)

	// CA1/CA2 entirely through follower-served reads: fetch every
	// strategy's full assignment and each node's conflict neighborhood
	// from a follower replica (min_seq pins the final state) and
	// require a proper coloring of the conflict graph.
	var fri struct {
		Followers []struct {
			Addr string `json:"addr"`
		} `json:"followers"`
	}
	if _, err := func() (int, error) {
		resp, err := client.Get("http://" + anyAddr() + "/cluster/route?session=" + session)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(&fri)
	}(); err != nil {
		fail(err)
	}
	if len(fri.Followers) == 0 {
		fail(fmt.Errorf("no followers to verify through after the run"))
	}
	base := fmt.Sprintf("http://%s/v1/sessions/%s", fri.Followers[0].Addr, session)
	pin := fmt.Sprintf("min_seq=%d&wait_ms=5000", len(script))
	followerGet := func(path string, out interface{}) {
		rr, err := rdClient.Get(base + path)
		if err != nil {
			fail(err)
		}
		defer rr.Body.Close()
		if rr.StatusCode != http.StatusOK || rr.Header.Get("X-Read-From") != "follower" {
			fail(fmt.Errorf("follower read %s: HTTP %d (served-by %q)", path, rr.StatusCode, rr.Header.Get("X-Read-From")))
		}
		if err := json.NewDecoder(rr.Body).Decode(out); err != nil {
			fail(err)
		}
	}
	strategies := []string{"Minim", "CP", "BBB"}
	assigns := map[string]map[string]int{}
	for _, name := range strategies {
		var out struct {
			Colors map[string]int `json:"colors"`
		}
		followerGet("/assignment?"+pin+"&strategy="+name, &out)
		assigns[name] = out.Colors
	}
	checkedNodes := 0
	for ids := range assigns[strategies[0]] {
		var out struct {
			Conflicts []int `json:"conflicts"`
		}
		followerGet("/conflicts?"+pin+"&node="+ids, &out)
		for _, nb := range out.Conflicts {
			nbs := strconv.Itoa(nb)
			for name, colors := range assigns {
				if colors[ids] == colors[nbs] {
					fail(fmt.Errorf("follower-served %s: nodes %s and %s share code %d (CA1/CA2 violation)", name, ids, nbs, colors[ids]))
				}
			}
		}
		checkedNodes++
	}

	// Differential verification: the survivors' final state must match
	// a single-process run of the full script, strategy by strategy.
	names := []sim.StrategyName{sim.Minim, sim.CP, sim.BBB}
	ref, err := sim.NewEngineSession(names, false)
	if err != nil {
		fail(err)
	}
	if err := ref.Apply(script); err != nil {
		fail(err)
	}
	var host *cluster.Node
	for _, id := range order {
		if crashed[id] {
			continue
		}
		if _, ok := nodes[id].Manager().Get(session); ok {
			host = nodes[id]
		}
	}
	if host == nil {
		fail(fmt.Errorf("no survivor hosts the session"))
	}
	s, _ := host.Manager().Get(session)
	if err := s.Barrier(); err != nil {
		fail(err)
	}
	v := s.View()
	if v.Seq() != len(script) {
		fail(fmt.Errorf("final seq %d, want %d", v.Seq(), len(script)))
	}
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
			fail(fmt.Errorf("%s assignment differs from the uncrashed reference", name))
		}
		if vs := toca.Verify(net.Graph(), got); len(vs) > 0 {
			fail(fmt.Errorf("%s: %d CA1/CA2 violations", name, len(vs)))
		}
	}

	// Close the loop through the monitoring surface: scrape the promoted
	// primary's /metrics over real HTTP and require the SLIs to agree
	// with the run — the view seq says no event was lost across the
	// kill, and the failover histogram says the promotion was observed.
	mresp, err := client.Get("http://" + host.Addr() + "/metrics")
	if err != nil {
		fail(fmt.Errorf("scraping promoted primary: %w", err))
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("scraping promoted primary: HTTP %d err %v", mresp.StatusCode, err))
	}
	sc, err := obs.ParseScrape(string(mbody))
	if err != nil {
		fail(err)
	}
	sessLabel := map[string]string{"session": session}
	if seq, ok := sc.Value("serve_view_seq", sessLabel); !ok || int(seq) != len(script) {
		fail(fmt.Errorf("metrics report serve_view_seq %.0f (found %v), want %d: events lost across the kill", seq, ok, len(script)))
	}
	if promotions, _ := sc.Value("cluster_failover_seconds_count", nil); promotions < 1 {
		fail(fmt.Errorf("promoted primary's metrics report no failover (cluster_failover_seconds_count %.0f)", promotions))
	}
	applyP50, _ := sc.Quantile("serve_apply_seconds", sessLabel, 0.5)
	applyP99, _ := sc.Quantile("serve_apply_seconds", sessLabel, 0.99)
	failoverS, _ := sc.Value("cluster_failover_seconds_sum", nil)

	// And through the fleet-wide surface: ANY survivor's /cluster/metrics
	// merges the whole fleet, so the one page must show the dead member
	// down, every survivor up, and the session at its final seq.
	fresp, err := client.Get("http://" + anyAddr() + "/cluster/metrics")
	if err != nil {
		fail(fmt.Errorf("scraping merged fleet metrics: %w", err))
	}
	fbody, err := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if err != nil || fresp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("scraping merged fleet metrics: HTTP %d err %v", fresp.StatusCode, err))
	}
	fsc, err := obs.ParseScrape(string(fbody))
	if err != nil {
		fail(fmt.Errorf("merged fleet exposition does not parse: %w", err))
	}
	upMembers := 0
	for _, id := range order {
		up, found := fsc.Value(obs.MemberUpFamily, map[string]string{"member": string(id)})
		switch {
		case !found:
			fail(fmt.Errorf("merged fleet page is missing %s for member %s", obs.MemberUpFamily, id))
		case crashed[id] && up != 0:
			fail(fmt.Errorf("merged fleet page reports crashed member %s up", id))
		case !crashed[id] && up != 1:
			fail(fmt.Errorf("merged fleet page reports live member %s down", id))
		default:
			if up == 1 {
				upMembers++
			}
		}
	}
	if seq, ok := fsc.Value("serve_view_seq", sessLabel); !ok || int(seq) != len(script) {
		fail(fmt.Errorf("merged fleet page reports serve_view_seq %.0f (found %v), want %d", seq, ok, len(script)))
	}

	// And through the trace collector: ANY survivor's /cluster/trace must
	// merge the owner set's flight-recorder rings into non-empty
	// end-to-end timelines — the rings survived the failover.
	tresp, err := client.Get("http://" + anyAddr() + "/cluster/trace/" + session)
	if err != nil {
		fail(fmt.Errorf("fetching merged trace: %w", err))
	}
	var tm obs.TraceMerge
	terr := json.NewDecoder(tresp.Body).Decode(&tm)
	tresp.Body.Close()
	if terr != nil || tresp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("fetching merged trace: HTTP %d err %v", tresp.StatusCode, terr))
	}
	if len(tm.Events) == 0 {
		fail(fmt.Errorf("merged trace for %q holds no events after the run", session))
	}
	traceStages := map[string]bool{}
	for _, stg := range tm.Stages {
		traceStages[stg.Stage] = true
	}
	for _, want := range []string{"enqueue", "apply", "view-publish"} {
		if !traceStages[want] {
			fail(fmt.Errorf("merged trace lacks stage %q (stages: %v)", want, tm.Stages))
		}
	}

	fmt.Printf("cluster load    : %d members, %d replicas, primary %s killed at event %d\n", members, replicas, primary, killAt)
	fmt.Printf("events applied  : %d (+%d resubmitted after failover, %d backpressure retries, %.0f events/s)\n",
		len(script), killAt-resumedFrom, rejected, float64(applied)/elapsed.Seconds())
	fmt.Printf("failover        : promoted at acked offset %d; continued run bit-identical to uncrashed reference\n", resumedFrom)
	fmt.Printf("reads           : %d monotonic (min_seq-chained), %d served by followers, final seq %d\n", reads, followerReads, lastSeen)
	fmt.Printf("CA1/CA2         : valid for all 3 strategies on the promoted primary AND through follower-served reads (%d nodes checked)\n", checkedNodes)
	fmt.Printf("metrics         : serve_view_seq %d (zero loss), promotion took %.1fms, apply p50 %.0fus p99 %.0fus — scraped from /metrics\n",
		len(script), failoverS*1e3, applyP50*1e6, applyP99*1e6)
	fmt.Printf("fleet metrics   : merged /cluster/metrics agrees — %d/%d members up, crashed %s down, session at seq %d\n",
		upMembers, members, primary, len(script))
	fmt.Printf("fleet trace     : merged /cluster/trace holds %d events across %d members (%d stages, %d skew-clamped spans)\n",
		len(tm.Events), len(tm.Members), len(tm.Stages), tm.SkewClamped)
}
