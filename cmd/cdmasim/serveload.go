package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adhoc"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/toca"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// runServeLoad is the load-generator mode: N concurrent sessions on one
// serve.Manager, each driven by its own writer goroutine with IPPP (or
// uniform) traffic through admission control while reader goroutines
// hammer the lock-free snapshots. Each session's final assignment is
// re-verified CA1/CA2 against a network rebuilt from its own view — the
// whole check runs over the public read API.
func runServeLoad(p workload.Params, sessions, readers, churn, hotspots int, seed uint64, dir string, verbose bool) {
	m := serve.NewManager(dir)
	defer m.CloseAll()
	// Instrument the manager exactly as cdmaserved does, so the load
	// report can fold real latency quantiles out of the same registry a
	// production scrape would hit.
	reg := obs.NewRegistry()
	m.Instrument(serve.NewMetrics(reg, obs.NewTraceHub(obs.DefaultTraceRing)))

	type result struct {
		id        string
		events    int
		rejected  int
		reads     int64
		snapshots map[string]int // strategy -> total recodings
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
		fatal   error
	)
	names := []string{"Minim", "CP", "BBB"}
	start := time.Now()

	for si := 0; si < sessions; si++ {
		id := fmt.Sprintf("load-%d", si)
		// SyncEvery gives durable runs a real fsync cadence (and a real
		// serve_fsync_seconds distribution); without a dir it is ignored.
		s, err := m.Create(id, serve.Config{Strategies: names, SyncEvery: 8})
		if err != nil {
			fail(err)
		}
		// Per-session script, seeded per session so tenants are
		// independent; same flag semantics as batch mode.
		sSeed := seed + uint64(si)*1000
		events, err := buildScript(sSeed, p, churn, hotspots)
		if err != nil {
			fail(err)
		}

		done := make(chan struct{})
		var reads atomic.Int64

		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			rejected := 0
			for _, ev := range events {
				for {
					err := s.Submit(ev)
					if err == nil {
						break
					}
					if !errors.Is(err, serve.ErrBackpressure) {
						mu.Lock()
						fatal = fmt.Errorf("%s: %w", id, err)
						mu.Unlock()
						return
					}
					rejected++
					time.Sleep(200 * time.Microsecond)
				}
			}
			if err := s.Barrier(); err != nil {
				mu.Lock()
				fatal = fmt.Errorf("%s: %w", id, err)
				mu.Unlock()
				return
			}
			r := result{id: id, events: len(events), rejected: rejected, snapshots: map[string]int{}}
			v := s.View()
			for _, name := range names {
				met, _ := v.MetricsOf(name)
				r.snapshots[name] = met.TotalRecodings
			}
			r.reads = reads.Load()
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}()

		for ri := 0; ri < readers; ri++ {
			wg.Add(1)
			go func(rSeed uint64) {
				defer wg.Done()
				rng := xrand.New(rSeed)
				for {
					select {
					case <-done:
						return
					default:
					}
					v := s.View()
					nodes := v.Nodes()
					if len(nodes) > 0 {
						nid := nodes[rng.Intn(len(nodes))]
						v.ColorOf(names[rng.Intn(len(names))], nid)
						v.ConflictNeighbors(nid)
					}
					reads.Add(1)
				}
			}(sSeed + uint64(ri) + 1)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if fatal != nil {
		fail(fatal)
	}

	// Verify every session over the public read API: rebuild the network
	// from the view's configurations and re-check CA1/CA2.
	totalEvents, totalReads := 0, int64(0)
	for _, r := range results {
		s, ok := m.Get(r.id)
		if !ok {
			fail(fmt.Errorf("session %s vanished", r.id))
		}
		v := s.View()
		net := adhoc.New()
		for _, nid := range v.Nodes() {
			cfg, _ := v.Config(nid)
			if err := net.Join(nid, cfg); err != nil {
				fail(err)
			}
		}
		for _, name := range names {
			a, _ := v.Assignment(name)
			if vs := toca.Verify(net.Graph(), a); len(vs) > 0 {
				fail(fmt.Errorf("%s: %s has %d violations after load", r.id, name, len(vs)))
			}
		}
		totalEvents += r.events
		totalReads += r.reads
		if verbose {
			fmt.Printf("  %s: %d events (%d backpressure retries), recodings %v\n",
				r.id, r.events, r.rejected, r.snapshots)
		}
	}
	fmt.Printf("serve load      : %d sessions x %d readers, wal=%v\n", sessions, readers, dir != "")
	fmt.Printf("events applied  : %d (%.0f events/s)\n", totalEvents, float64(totalEvents)/elapsed.Seconds())
	fmt.Printf("snapshot reads  : %d (%.0f reads/s)\n", totalReads, float64(totalReads)/elapsed.Seconds())
	fmt.Printf("CA1/CA2         : valid for all %d sessions x %d strategies\n", len(results), len(names))

	// Fold the run's metrics into the report the way a monitoring stack
	// would: snapshot the registry and estimate quantiles from its
	// buckets, aggregated over every session.
	sc := reg.Snapshot()
	applyP50, _ := sc.Quantile("serve_apply_seconds", nil, 0.5)
	applyP99, _ := sc.Quantile("serve_apply_seconds", nil, 0.99)
	fmt.Printf("apply latency   : p50 %.0fus, p99 %.0fus (backpressure 429s: %.0f)\n",
		applyP50*1e6, applyP99*1e6, sc.Sum("serve_backpressure_total", nil))
	if dir != "" {
		fsyncP50, _ := sc.Quantile("serve_fsync_seconds", nil, 0.5)
		fsyncP99, _ := sc.Quantile("serve_fsync_seconds", nil, 0.99)
		fmt.Printf("fsync latency   : p50 %.0fus, p99 %.0fus (%.0f records, %.0f MiB appended)\n",
			fsyncP50*1e6, fsyncP99*1e6,
			sc.Sum("serve_wal_records_total", nil),
			sc.Sum("serve_wal_appended_bytes_total", nil)/(1<<20))
	}
	if applied := sc.Sum("serve_events_applied_total", nil); int(applied) != totalEvents {
		fail(fmt.Errorf("metrics disagree with the run: serve_events_applied_total %.0f, applied %d", applied, totalEvents))
	}
}
