package cluster

// Fleet observability surface: GET /cluster/metrics fans a scrape out
// to every live member and serves one merged exposition — fleet
// replication lag, fleet apply latency, per-member liveness on one
// page, served by ANY member. Aggregation runs entirely on the request
// goroutine against each member's /metrics endpoint; it never touches
// an apply or ship path.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// fleetScrapeTimeout bounds each member scrape in the fan-out. A
// member that cannot answer /metrics this fast is reported down
// (cluster_member_up 0) rather than stalling the merged page.
const fleetScrapeTimeout = 2 * time.Second

// fleetMergeOptions are the aggregation rules for this codebase's
// metric families: cluster_members_alive stays per-member (each
// member's view of the fleet is the interesting disagreement — a
// max would hide a partition); everything else follows its TYPE
// (counters and histograms sum, gauges max).
func fleetMergeOptions(down []string) obs.MergeOptions {
	return obs.MergeOptions{
		PerMember: map[string]bool{"cluster_members_alive": true},
		Down:      down,
	}
}

// handleFleetMetrics serves GET /cluster/metrics: scrape self
// in-process, every live peer over HTTP in parallel, merge, render.
func (n *Node) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	members := n.ms.Table()
	var (
		mu      sync.Mutex
		scrapes []obs.MemberScrape
		down    []string
		wg      sync.WaitGroup
	)
	// Peer goroutines append concurrently with the loop's own self and
	// dead-member branches, so every append goes through the mutex.
	addDown := func(id string) {
		mu.Lock()
		down = append(down, id)
		mu.Unlock()
	}
	addScrape := func(id string, sc *obs.Scrape) {
		mu.Lock()
		scrapes = append(scrapes, obs.MemberScrape{Member: id, Scrape: sc})
		mu.Unlock()
	}
	for _, m := range members {
		id := string(m.ID)
		if m.ID == n.cfg.ID {
			// Self: snapshot in-process; an uninstrumented member still
			// counts as up, it just contributes no samples.
			addScrape(id, n.obs.reg.Snapshot())
			continue
		}
		if m.Addr == "" || !n.ms.IsAlive(m.ID) {
			addDown(id)
			continue
		}
		wg.Add(1)
		go func(id, addr string) {
			defer wg.Done()
			sc, err := n.scrapeMember(addr)
			if err != nil {
				addDown(id)
				return
			}
			addScrape(id, sc)
		}(id, m.Addr)
	}
	wg.Wait()
	// Fan-out completion order is scheduling noise; merge input order
	// must not be.
	sort.Slice(scrapes, func(i, j int) bool { return scrapes[i].Member < scrapes[j].Member })
	sort.Strings(down)

	merged := obs.Merge(scrapes, fleetMergeOptions(down))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	merged.WriteText(w)
}

// scrapeMember fetches and parses one peer's /metrics.
func (n *Node) scrapeMember(addr string) (*obs.Scrape, error) {
	resp, err := n.scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: scrape %s: %s", addr, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseScrape(string(body))
}
