package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/obs"
)

// TestFleetCanaryFailoverE2E is the fleet-observability acceptance
// path: a real 3-member cluster with live Run loops, a black-box
// canary probing through the public HTTP API, and a mid-run primary
// kill. Everything is asserted through public endpoints only —
// /cluster/metrics served by a survivor, the canary SLIs in the merged
// exposition, and the SLO engine's /slo verdicts:
//
//	(a) the merged fleet page shows the dead member down, the
//	    promotion in cluster_failover_seconds, and replication moving;
//	(b) the canary recorded a bounded failover blackout;
//	(c) the SLO engine reports the blackout as error-budget burn.
func TestFleetCanaryFailoverE2E(t *testing.T) {
	const session = "canary-probe"
	canaryObjective := obs.Objective{
		Name:   "canary-availability",
		Good:   obs.Selector{Name: "canary_probe_total", Labels: map[string]string{"result": "ok"}},
		Total:  obs.Selector{Name: "canary_probe_total"},
		Target: 0.999,
		// A window far longer than the test: the blackout stays inside
		// it, so burn cannot slide away before we assert.
		Window: 10 * time.Minute,
	}

	type member struct {
		n       *Node
		reg     *obs.Registry
		done    chan struct{}
		stopped chan struct{}
	}
	members := map[MemberID]*member{}
	var order []MemberID
	for i := 0; i < 3; i++ {
		id := MemberID(fmt.Sprintf("c%d", i))
		reg := obs.NewRegistry()
		n, err := NewNode(Config{
			ID: id, Dir: t.TempDir(), Replicas: 2,
			FailAfter: 2, Fanout: 2, Seed: uint64(i) + 1,
			Registry: reg,
			Trace:    obs.NewTraceHub(obs.DefaultTraceRing),
			Log:      obs.NewLogger(io.Discard, obs.LevelError),
			// Every member evaluates the canary objective against its
			// own registry: only the member the canary publishes into
			// sees traffic, so only its /slo carries the burn — but any
			// member could have been chosen, which is the point.
			SLO: obs.NewSLO(reg, nil, canaryObjective),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		members[id] = &member{n: n, reg: reg, done: make(chan struct{}), stopped: make(chan struct{})}
		order = append(order, id)
	}
	running := map[MemberID]bool{}
	t.Cleanup(func() {
		for _, id := range order {
			if running[id] {
				close(members[id].done)
				<-members[id].stopped
				members[id].n.Stop()
			}
		}
	})
	seed := members[order[0]].n.Addr()
	for _, id := range order[1:] {
		if err := members[id].n.JoinCluster(seed); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		for _, id := range order {
			members[id].n.Tick()
		}
	}

	// Place the canary's session first so we know which member to kill
	// (the canary itself will hit 409 and carry on).
	client := &http.Client{Timeout: 5 * time.Second}
	body, _ := json.Marshal(map[string]interface{}{
		"id":     session,
		"config": map[string]interface{}{"strategies": []string{"Minim"}, "sync_every": 1},
	})
	resp, err := client.Post("http://"+seed+"/cluster/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ri routeInfo
	if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d", resp.StatusCode)
	}
	primary := ri.Primary.ID
	var survivors []MemberID
	for _, id := range order {
		if id != primary {
			survivors = append(survivors, id)
		}
	}

	// Live member loops, then a live canary publishing into the first
	// survivor's registry — so its SLIs ride that member's /metrics,
	// the merged /cluster/metrics, and that member's SLO engine.
	for _, id := range order {
		m := members[id]
		running[id] = true
		go func() { defer close(m.stopped); m.n.Run(m.done, 20*time.Millisecond) }()
	}
	host := members[survivors[0]]
	prober := canary.New(canary.Config{
		Target:   host.n.Addr(),
		Session:  session,
		Cluster:  true,
		Interval: 40 * time.Millisecond,
		Timeout:  2 * time.Second,
		Registry: host.reg,
	})
	canaryDone := make(chan struct{})
	t.Cleanup(func() { close(canaryDone) })
	go prober.Run(canaryDone)

	waitFor := func(desc string, deadline time.Duration, cond func() bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if cond() {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}
	canaryScrape := host.reg.Snapshot
	sess := map[string]string{"session": session}
	okProbes := func() float64 {
		v, _ := canaryScrape().Value("canary_probe_total", map[string]string{"session": session, "result": "ok"})
		return v
	}

	waitFor("canary steady state (3 ok probes)", 15*time.Second, func() bool { return okProbes() >= 3 })
	okBeforeKill := okProbes()

	// Mid-run primary kill: stop its loop, then cut it off.
	close(members[primary].done)
	<-members[primary].stopped
	running[primary] = false
	members[primary].n.Crash()

	// (b) The canary must record the blackout — a failed write window
	// closed by a successful write against the promoted survivor — and
	// keep probing successfully afterwards.
	waitFor("canary blackout recorded and probes recovered", 30*time.Second, func() bool {
		sc := canaryScrape()
		blackouts, _ := sc.Value("canary_blackouts_total", sess)
		ok, _ := sc.Value("canary_probe_total", map[string]string{"session": session, "result": "ok"})
		return blackouts >= 1 && ok >= okBeforeKill+2
	})
	sc := canaryScrape()
	if last, found := sc.Value("canary_last_blackout_seconds", sess); !found || last <= 0 || last > 30 {
		t.Fatalf("canary_last_blackout_seconds %v (found %v), want in (0, 30]", last, found)
	}

	// (a) The merged fleet exposition, served by a survivor that was
	// NOT the canary's host, must show the dead member down, the
	// promotion, replication having moved, and the canary SLIs — one
	// page for the whole fleet.
	fleetFrom := survivors[len(survivors)-1]
	fleetScrape := func() *obs.Scrape {
		resp, err := client.Get("http://" + members[fleetFrom].n.Addr() + "/cluster/metrics")
		if err != nil {
			t.Fatalf("GET /cluster/metrics: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /cluster/metrics: %s", resp.Status)
		}
		fsc, err := obs.ParseScrape(string(raw))
		if err != nil {
			t.Fatalf("merged exposition does not parse: %v", err)
		}
		return fsc
	}
	waitFor("merged fleet page reflecting the failover", 30*time.Second, func() bool {
		fsc := fleetScrape()
		up, found := fsc.Value(obs.MemberUpFamily, map[string]string{"member": string(primary)})
		fo := fsc.Sum("cluster_failover_seconds_count", nil)
		return found && up == 0 && fo >= 1
	})
	fsc := fleetScrape()
	for _, id := range survivors {
		if up, found := fsc.Value(obs.MemberUpFamily, map[string]string{"member": string(id)}); !found || up != 1 {
			t.Fatalf("survivor %s: %s %v (found %v), want 1", id, obs.MemberUpFamily, up, found)
		}
	}
	if v := fsc.Sum("cluster_ship_records_total", sess); v < 1 {
		t.Fatalf("merged cluster_ship_records_total %v, want >= 1 (replication should have moved)", v)
	}
	if v, found := fsc.Value("canary_blackouts_total", sess); !found || v < 1 {
		t.Fatalf("merged page canary_blackouts_total %v (found %v), want >= 1", v, found)
	}
	if v := fsc.Sum("canary_write_ack_seconds_count", sess); v < 1 {
		t.Fatalf("merged page canary_write_ack_seconds_count %v, want >= 1", v)
	}

	// (c) The SLO engine on the canary's host must report the blackout
	// as error-budget burn, through the public /slo endpoint.
	waitFor("SLO burn on the canary host", 10*time.Second, func() bool {
		resp, err := client.Get("http://" + host.n.Addr() + "/slo")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var out struct {
			Verdicts []obs.Verdict `json:"verdicts"`
		}
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
			return false
		}
		for _, v := range out.Verdicts {
			if v.Name == "canary-availability" {
				return v.Total > v.Good && v.BurnRate > 0 && v.Breached
			}
		}
		return false
	})
}
