package cluster

import (
	"io"
	"net/http"
	"testing"

	"repro/internal/obs"
)

// scrapeHTTP fetches a member's /metrics over its real listener and
// parses the exposition.
func scrapeHTTP(t *testing.T, h *harness, id MemberID) *obs.Scrape {
	t.Helper()
	resp, err := h.client.Get("http://" + h.nodes[id].Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	sc, err := obs.ParseScrape(string(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return sc
}

// TestClusterMetricsE2E drives a real 3-member cluster through a
// replication stall and a failover, asserting the SLIs move the way
// the run did: ship lag climbs (records AND seconds) while a follower
// is down, the promotion lands in cluster_failover_seconds, and the
// serve/cluster metric families are all visible through the members'
// real /metrics endpoints.
func TestClusterMetricsE2E(t *testing.T) {
	h := newObsHarness(t, 3, 2)
	script := testScript(101, 40, 100)
	ri := h.createSession("obs-fo", SessionConfig{Strategies: clusterNames, SyncEvery: 1, SegmentBytes: 4096})
	if len(ri.Followers) != 2 {
		t.Fatalf("expected 2 followers, got %v", ri.Followers)
	}
	primary := ri.Primary.ID

	k := 80
	h.applyEvents("obs-fo", script[:k])
	h.shipAll()

	// Fully shipped: the primary's exposition shows the serve and
	// cluster families agreeing with the run.
	sc := scrapeHTTP(t, h, primary)
	sess := map[string]string{"session": "obs-fo"}
	if v, ok := sc.Value("serve_events_applied_total", sess); !ok || int(v) != k {
		t.Fatalf("serve_events_applied_total %v (found %v), want %d", v, ok, k)
	}
	if v, ok := sc.Value("serve_view_seq", sess); !ok || int(v) != k {
		t.Fatalf("serve_view_seq %v (found %v), want %d", v, ok, k)
	}
	if v := sc.Sum("serve_wal_records_total", sess); int(v) != k {
		t.Fatalf("serve_wal_records_total %v, want %d", v, k)
	}
	if v := sc.Sum("cluster_ship_records_total", sess); int(v) != 2*k {
		t.Fatalf("cluster_ship_records_total %v across 2 followers, want %d", v, 2*k)
	}
	for _, f := range ri.Followers {
		lbl := map[string]string{"session": "obs-fo", "follower": string(f.ID)}
		if v, ok := sc.Value("cluster_ship_lag_records", lbl); !ok || v != 0 {
			t.Fatalf("caught-up follower %s shows lag %v (found %v), want 0", f.ID, v, ok)
		}
	}
	if v, ok := sc.Value("cluster_members_alive", nil); !ok || int(v) != 3 {
		t.Fatalf("cluster_members_alive %v (found %v), want 3", v, ok)
	}
	if v, _ := sc.Value("cluster_gossip_rounds_total", nil); v < 1 {
		t.Fatalf("cluster_gossip_rounds_total %v, want >= 1", v)
	}

	// Kill one follower WITHOUT letting gossip notice (no ticks): the
	// link stalls, the backlog grows, and the lag SLIs must climb while
	// the healthy link stays at zero.
	down := ri.Followers[0].ID
	up := ri.Followers[1].ID
	h.crash(down)
	h.applyEvents("obs-fo", script[k:])
	h.shipAll()

	sc = scrapeHTTP(t, h, primary)
	tail := len(script) - k
	downLbl := map[string]string{"session": "obs-fo", "follower": string(down)}
	upLbl := map[string]string{"session": "obs-fo", "follower": string(up)}
	if v, ok := sc.Value("cluster_ship_lag_records", downLbl); !ok || int(v) != tail {
		t.Fatalf("dead follower's lag %v records (found %v), want %d", v, ok, tail)
	}
	if v, ok := sc.Value("cluster_ship_lag_seconds", downLbl); !ok || v <= 0 {
		t.Fatalf("dead follower's lag %v seconds (found %v), want > 0", v, ok)
	}
	if v, ok := sc.Value("cluster_ship_lag_records", upLbl); !ok || v != 0 {
		t.Fatalf("live follower's lag %v records (found %v), want 0", v, ok)
	}
	if v := sc.Sum("cluster_ship_records_total", map[string]string{"session": "obs-fo", "follower": string(up)}); int(v) != len(script) {
		t.Fatalf("live follower acked %v records, want %d", v, len(script))
	}

	// Now the primary dies too. The surviving follower detects both
	// deaths, promotes, and its own exposition must carry the failover:
	// a fail transition per dead peer, one observation in
	// cluster_failover_seconds, and the promoted session's view at the
	// acked offset — nothing lost.
	h.crash(primary)
	h.tickAll(4)
	h.reconcileAll()

	pn := h.nodeHosting("obs-fo")
	if pn.ID() != up {
		t.Fatalf("session promoted on %s, want surviving follower %s", pn.ID(), up)
	}
	sc = scrapeHTTP(t, h, pn.ID())
	if v, ok := sc.Value("cluster_member_fail_total", nil); !ok || v < 2 {
		t.Fatalf("survivor saw %v member failures (found %v), want >= 2", v, ok)
	}
	if v, ok := sc.Value("cluster_failover_seconds_count", nil); !ok || int(v) != 1 {
		t.Fatalf("cluster_failover_seconds_count %v (found %v), want 1", v, ok)
	}
	if v, _ := sc.Value("cluster_failover_seconds_sum", nil); v <= 0 {
		t.Fatalf("cluster_failover_seconds_sum %v, want > 0", v)
	}
	if v, ok := sc.Value("serve_view_seq", sess); !ok || int(v) != len(script) {
		t.Fatalf("promoted serve_view_seq %v (found %v), want %d", v, ok, len(script))
	}
}
