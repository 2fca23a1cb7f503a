package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// newChaosHarness builds an instrumented CP-mode cluster whose every
// outbound HTTP link — gossip, ship, adopt, scrapes — runs through one
// chaos.Net fault injector, so tests can cut real links instead of
// crashing processes. Members run with RequireQuorum: a partitioned
// minority refuses writes and promotions rather than forking.
func newChaosHarness(t *testing.T, members, replicas int) (*harness, *chaos.Net) {
	t.Helper()
	cnet := chaos.NewNet()
	h := &harness{
		t:            t,
		nodes:        make(map[MemberID]*Node),
		crashed:      make(map[MemberID]bool),
		dirs:         make(map[MemberID]string),
		replicas:     replicas,
		client:       &http.Client{Timeout: 10 * time.Second},
		instrumented: true,
		regs:         make(map[MemberID]*obs.Registry),
	}
	for i := 0; i < members; i++ {
		id := MemberID(fmt.Sprintf("m%d", i))
		dir := t.TempDir()
		cfg := h.memberConfig(id, dir, replicas, uint64(i)+1)
		cfg.Transport = cnet.Transport(string(id), nil)
		cfg.RequireQuorum = true
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		cnet.Register(string(id), n.Addr())
		h.nodes[id] = n
		h.dirs[id] = dir
		h.order = append(h.order, id)
	}
	seedAddr := h.nodes[h.order[0]].Addr()
	for _, id := range h.order[1:] {
		if err := h.nodes[id].JoinCluster(seedAddr); err != nil {
			t.Fatal(err)
		}
	}
	h.tickAll(3)
	for _, id := range h.order {
		if got := len(h.nodes[id].Membership().Alive()); got != members {
			t.Fatalf("%s sees %d alive members, want %d", id, got, members)
		}
	}
	t.Cleanup(func() {
		for id, n := range h.nodes {
			if !h.crashed[id] {
				n.Stop()
			}
		}
	})
	return h, cnet
}

// scrapeFleet fetches a member's merged /cluster/metrics page.
func scrapeFleet(t *testing.T, h *harness, id MemberID) *obs.Scrape {
	t.Helper()
	resp, err := h.client.Get("http://" + h.nodes[id].Addr() + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseScrape(string(body))
	if err != nil {
		t.Fatalf("fleet exposition does not parse: %v", err)
	}
	return sc
}

// applyEventsAt posts a batch to ONE specific member (no failover to
// another address) and asserts the response code — the tool for
// checking which side of a partition accepts writes.
func (h *harness) applyEventsAt(addr, session string, evs []strategy.Event, wantCode int) {
	h.t.Helper()
	type eventsReq struct {
		Events []trace.EventRecord `json:"events"`
	}
	var req eventsReq
	for _, ev := range evs {
		ej, err := trace.EncodeEvent(ev)
		if err != nil {
			h.t.Fatal(err)
		}
		req.Events = append(req.Events, ej)
	}
	h.postJSON(addr, "/v1/sessions/"+session+"/events", req, nil, wantCode)
}

// leadersOf returns the members currently leading the session.
func (h *harness) leadersOf(session string) []MemberID {
	var out []MemberID
	for _, id := range h.order {
		if h.crashed[id] {
			continue
		}
		if _, ok := h.nodes[id].localPrimary(session); ok {
			out = append(out, id)
		}
	}
	return out
}

// partitionScenario runs the full seeded partition story once and
// returns the chaos event log plus the final converged seq, so the
// caller can replay it and compare runs bit-for-bit.
//
// The story: a 3-member cluster leads a session on its rendezvous
// owner; the network then isolates the PRIMARY (minority of one)
// from the other two members. The minority keeps leading but must
// refuse writes (no quorum); the majority detects the death, promotes
// a replacement at a higher epoch, and the writer resumes there with
// nothing lost. On heal, the superseded epoch yields, the placement
// hands leadership back to the rendezvous owner, and the cluster
// converges to a single leader whose state matches the sequential
// reference bit-for-bit.
func partitionScenario(t *testing.T, seed uint64) ([]chaos.Event, int) {
	t.Helper()
	h, cnet := newChaosHarness(t, 3, 2)
	script := testScript(seed, 30, 60)
	ri := h.createSession("part", SessionConfig{Strategies: clusterNames, SyncEvery: 1, SegmentBytes: 4096})
	if len(ri.Followers) != 2 {
		t.Fatalf("expected 2 followers, got %v", ri.Followers)
	}
	p := ri.Primary.ID
	majority := []string{}
	for _, f := range ri.Followers {
		majority = append(majority, string(f.ID))
	}

	k := 60
	h.applyEventsAt(h.nodes[p].Addr(), "part", script[:k], http.StatusOK)
	h.shipAll()

	// The link cut: primary alone on one side, both followers (and,
	// conceptually, the client) on the other.
	cnet.Partition([]string{string(p)}, majority)
	h.tickAll(4) // FailAfter=2: both sides declare the other dead

	if h.nodes[p].Membership().Quorum() {
		t.Fatal("isolated primary still claims quorum")
	}
	// The split-brain gate: the minority-side primary is reachable by
	// the test (the chaos net only wraps MEMBER transports) and still
	// leads the session — but it must refuse the write retryably.
	h.applyEventsAt(h.nodes[p].Addr(), "part", script[k:k+1], http.StatusServiceUnavailable)

	// Majority side: failover promotes a replacement leader.
	h.reconcileAll()
	var promoted MemberID
	for _, f := range ri.Followers {
		if _, ok := h.nodes[f.ID].localPrimary("part"); ok {
			promoted = f.ID
		}
	}
	if promoted == "" {
		t.Fatal("majority side did not promote a replacement leader")
	}
	if ps, _ := h.nodes[promoted].localPrimary("part"); ps.cfg.Epoch != 2 {
		t.Fatalf("promoted leader at epoch %d, want 2", ps.cfg.Epoch)
	}

	// The writer resumes against the majority: everything acked before
	// the cut is there (zero acked writes lost), and the tail applies.
	h.applyEventsAt(h.nodes[promoted].Addr(), "part", script[k:], http.StatusOK)
	h.shipAll()

	// Heal. Gossip resurrects the old primary, the epoch rule kills its
	// stale leadership, and placement hands the session back to the
	// rendezvous owner. Drive rounds until the cluster is quiet.
	cnet.Heal()
	h.tickAll(3)
	converged := false
	for i := 0; i < 25 && !converged; i++ {
		h.tickAll(1)
		h.shipAll()
		h.reconcileAll()
		leaders := h.leadersOf("part")
		converged = len(leaders) == 1 && leaders[0] == p && h.seqOf("part") == len(script)
	}
	if !converged {
		t.Fatalf("cluster did not re-converge after heal: leaders %v, seq %d (want leader %s at %d)",
			h.leadersOf("part"), h.seqOf("part"), p, len(script))
	}
	// Leadership is back at the rendezvous owner, one generation past
	// the failover's.
	ps, _ := h.nodes[p].localPrimary("part")
	if ps.cfg.Epoch != 3 {
		t.Fatalf("re-adopted leader at epoch %d, want 3", ps.cfg.Epoch)
	}
	// The old primary yielded exactly once on its side of the heal.
	if v, ok := h.regs[p].Snapshot().Value("cluster_leader_yield_total", nil); !ok || int(v) != 1 {
		t.Fatalf("cluster_leader_yield_total on %s = %v (found %v), want 1", p, v, ok)
	}
	// Replication lag fully drained: both followers hold the complete
	// log again.
	h.shipAll()
	for _, id := range h.order {
		if id == p {
			continue
		}
		rep, ok := h.nodes[id].Manager().GetReplica("part")
		if !ok || rep.Seq() != len(script) {
			t.Fatalf("follower %s replica at seq %v (found %v), want %d", id, rep, ok, len(script))
		}
	}
	// Bit-exact convergence against the sequential reference: topology,
	// assignments, metrics.
	s, _ := h.nodes[p].Manager().Get("part")
	assertSessionEquals(t, "post-heal", s, refSession(t, script), len(script))
	return cnet.Events(), h.seqOf("part")
}

// TestPartitionMinorityPrimaryConvergesAfterHeal is the chaos
// harness's flagship scenario (see partitionScenario), run twice from
// the same seed: both runs must converge AND leave identical chaos
// event logs — the replay property a failure seed depends on.
func TestPartitionMinorityPrimaryConvergesAfterHeal(t *testing.T) {
	ev1, seq1 := partitionScenario(t, 4242)
	ev2, seq2 := partitionScenario(t, 4242)
	if seq1 != seq2 {
		t.Fatalf("replayed scenario ended at seq %d, first run %d", seq2, seq1)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("replayed chaos event log differs:\n%v\nvs\n%v", ev1, ev2)
	}
	if len(ev1) == 0 {
		t.Fatal("chaos event log empty")
	}
}

// TestPartitionFleetObservabilityDegrades: while a member is
// partitioned away (alive process, dead links), the fleet surfaces
// stay up and degrade honestly — /cluster/metrics serves a partial
// merge with the unreachable member flagged cluster_member_up 0, and
// /cluster/trace serves the merged timeline with that member marked
// down rather than erroring or stalling.
func TestPartitionFleetObservabilityDegrades(t *testing.T) {
	h, cnet := newChaosHarness(t, 3, 2)
	script := testScript(99, 20, 20)
	ri := h.createSession("obs-part", SessionConfig{Strategies: clusterNames, SyncEvery: 1, SegmentBytes: 4096})
	p := ri.Primary.ID
	h.applyEventsAt(h.nodes[p].Addr(), "obs-part", script, http.StatusOK)
	h.shipAll()

	// Cut the primary's links WITHOUT letting gossip notice: the member
	// is still in everyone's alive set, but its scrapes now fail — the
	// "partitioned, not dead" window the fleet pages must survive.
	var rest []string
	for _, f := range ri.Followers {
		rest = append(rest, string(f.ID))
	}
	cnet.Partition([]string{string(p)}, rest)

	probe := ri.Followers[0].ID
	sc := scrapeFleet(t, h, probe)
	if v, ok := sc.Value("cluster_member_up", map[string]string{"member": string(p)}); !ok || v != 0 {
		t.Fatalf("partitioned member %s: cluster_member_up %v (found %v), want 0", p, v, ok)
	}
	if v, ok := sc.Value("cluster_member_up", map[string]string{"member": string(probe)}); !ok || v != 1 {
		t.Fatalf("probe member %s: cluster_member_up %v (found %v), want 1", probe, v, ok)
	}
	// The merge is partial, not empty: the probe's own samples are
	// still on the page.
	if v, ok := sc.Value("cluster_members_alive", map[string]string{"member": string(probe)}); !ok || v < 1 {
		t.Fatalf("partial merge lost the probe's own samples: cluster_members_alive %v (found %v)", v, ok)
	}

	resp, err := h.client.Get("http://" + h.nodes[probe].Addr() + "/cluster/trace/obs-part")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/trace during partition: %s", resp.Status)
	}
	var merged struct {
		Members []struct {
			Member string `json:"member"`
			Down   bool   `json:"down,omitempty"`
		} `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	sawDown, sawUp := false, false
	for _, m := range merged.Members {
		if m.Member == string(p) && m.Down {
			sawDown = true
		}
		if m.Member != string(p) && !m.Down {
			sawUp = true
		}
	}
	if !sawDown || !sawUp {
		t.Fatalf("trace merge during partition: members %+v, want %s down and a live peer up", merged.Members, p)
	}
	cnet.Heal()
}
