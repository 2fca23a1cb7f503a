// Command cdmaserved serves the multi-tenant session service over
// HTTP/JSON: many independent simulation sessions in one process, each
// with a durable WAL, crash recovery, and lock-free read snapshots (see
// internal/serve for the full API and semantics).
//
// Usage:
//
//	cdmaserved [-addr :8080] [-dir cdmaserved-data]
//	cdmaserved -cluster -id node-a [-join host:port] [-replicas 1]
//	           [-interval 500ms] [-addr :8080] [-dir node-a-data]
//	cdmaserved ... [-log-level info] [-pprof]
//
// Standalone mode hosts sessions under -dir (empty disables
// durability); POST /v1/sessions with {"recover": true} reopens a
// session from its WAL after a restart.
//
// Cluster mode (-cluster) joins a fleet of cdmaserved processes (see
// internal/cluster): sessions created via POST /cluster/sessions are
// placed by rendezvous hashing, replicated to -replicas followers by
// WAL shipping (one shared log read fans out to every follower), and
// failed over automatically when a primary dies. Any member answers
// GET /cluster/route (?read=1 nominates a read target across the whole
// owner set) and 307-redirects /v1 requests to the session's primary —
// except reads (status, assignment, conflicts, metrics) of sessions
// the member FOLLOWS, which are served directly from the replica's
// warm view, tagged X-Read-From: follower, with ?min_seq= bounding
// staleness (wait, then redirect-or-503). Late-joining or far-behind
// followers catch up by fetching the primary's newest snapshot segment
// (GET /cluster/snapshot/{id}) instead of replaying the full log, and
// a session's "compact_every" budget drives barrier-coordinated WAL
// truncation on primary and followers alike. -join introduces this
// member to an existing one; the -interval loop drives gossip,
// shipping, and reconciliation.
//
// Observability (both modes — metric catalog in docs/observability.md):
//
//	GET /metrics            Prometheus text exposition
//	GET /slo                objective verdicts (ratio, burn rate, breach)
//	GET /debug/trace/{id}   per-session event trace rings (JSON)
//	GET /debug/slowest      tail-sampled slow-event ring (JSON): the
//	                        (session, seq) of recent events over 100ms
//	GET /healthz            process liveness (always 200)
//	GET /readyz             readiness: 200 once recovered and joined,
//	                        503 while starting or draining
//	GET /debug/pprof/...    runtime profiles, only with -pprof
//
// Cluster mode additionally serves GET /cluster/metrics — the merged,
// fleet-wide exposition (every live member scraped and aggregated; see
// cmd/cdmatop for the terminal view).
//
// -canary runs an in-process black-box prober against this process's
// own public API: a synthetic session probed every second (write →
// read-your-write → watch), published as canary_* SLIs and evaluated
// by the built-in SLO objectives — a sustained canary outage degrades
// /readyz via the "canary-availability" objective.
//
// -log-level (debug|info|warn|error) filters the log/slog text records
// written to stderr. SIGINT/SIGTERM flip /readyz to 503 first, then
// drain every session (final WAL sync) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/canary"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dir       = flag.String("dir", "cdmaserved-data", "WAL directory (empty disables durability; cluster mode requires one)")
		clustered = flag.Bool("cluster", false, "join a cluster of cdmaserved processes")
		id        = flag.String("id", "", "cluster member identity (required with -cluster)")
		join      = flag.String("join", "", "address of an existing cluster member to join through")
		replicas  = flag.Int("replicas", 1, "follower replicas per session (cluster mode)")
		interval  = flag.Duration("interval", 500*time.Millisecond, "gossip/ship/reconcile loop interval (cluster mode)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		canaryOn  = flag.Bool("canary", false, "run an in-process black-box canary against this process's own API")
	)
	var level slog.Level
	flag.TextVar(&level, "log-level", slog.LevelInfo, "log threshold: debug, info, warn, or error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, level)
	reg := obs.NewRegistry()
	hub := obs.NewTraceHub(obs.DefaultTraceRing)
	health := obs.NewHealth("starting")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	slo := obs.NewSLO(reg, health, defaultObjectives()...)

	if *clustered {
		runCluster(ctx, clusterOpts{
			addr: *addr, dir: *dir, id: *id, join: *join,
			replicas: *replicas, interval: *interval,
			reg: reg, hub: hub, log: logger, health: health, slo: slo,
			pprof: *pprofOn, canary: *canaryOn,
		})
		return
	}

	m := serve.NewManager(*dir)
	m.Instrument(serve.NewMetrics(reg, hub))
	mux := http.NewServeMux()
	mux.Handle("/v1/", serve.NewHandler(m))
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /slo", slo.Handler())
	mux.Handle("GET /debug/trace/", hub.Handler("/debug/trace/"))
	mux.Handle("GET /debug/slowest", hub.Slow().Handler())
	mux.HandleFunc("GET /healthz", obs.Healthz)
	mux.Handle("GET /readyz", health)
	if *pprofOn {
		mountPprof(mux)
	}
	srv := &http.Server{Addr: *addr, Handler: mux}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	health.Set(true, "")
	// Standalone mode has no reconcile loop, so the SLO engine gets its
	// own ticker (cluster mode evaluates inside Node.Run).
	go func() {
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				slo.Tick(time.Now())
			}
		}
	}()
	if *canaryOn {
		pr := canary.New(canary.Config{
			Target: selfTarget(*addr), Registry: reg, Log: logger,
		})
		go pr.Run(ctx.Done())
	}
	logger.Info("listening", "component", "serve", "addr", *addr, "dir", *dir)

	select {
	case <-ctx.Done():
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
		return
	}

	// Readiness flips BEFORE the listener closes so load balancers stop
	// routing here while in-flight requests drain.
	health.Set(false, "draining")
	logger.Info("draining sessions", "component", "serve")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	if err := m.CloseAll(); err != nil {
		fail(err)
	}
	logger.Info("bye", "component", "serve")
}

type clusterOpts struct {
	addr, dir, id, join string
	replicas            int
	interval            time.Duration
	reg                 *obs.Registry
	hub                 *obs.TraceHub
	log                 *slog.Logger
	health              *obs.Health
	slo                 *obs.SLO
	pprof               bool
	canary              bool
}

// defaultObjectives are the built-in SLOs every cdmaserved evaluates:
// both ride the canary's black-box SLIs, so without -canary (or an
// external canary publishing into this registry) they stay at zero
// traffic and never breach.
func defaultObjectives() []obs.Objective {
	return []obs.Objective{
		{
			Name:     "canary-availability",
			Good:     obs.Selector{Name: "canary_probe_total", Labels: map[string]string{"result": "ok"}},
			Total:    obs.Selector{Name: "canary_probe_total"},
			Target:   0.99,
			Window:   5 * time.Minute,
			Critical: true,
		},
		{
			Name:      "canary-write-ack-latency",
			Latency:   obs.Selector{Name: "canary_write_ack_seconds"},
			Threshold: 0.25,
			Target:    0.99,
			Window:    5 * time.Minute,
		},
	}
}

// selfTarget turns a listen address into a dialable one for the
// in-process canary (":8080" listens on every interface; the canary
// dials loopback).
func selfTarget(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "127.0.0.1" + addr
	}
	return addr
}

func runCluster(ctx context.Context, o clusterOpts) {
	if o.id == "" {
		fail(errors.New("cluster mode needs -id"))
	}
	if o.dir == "" {
		fail(errors.New("cluster mode needs a WAL directory (-dir)"))
	}
	n, err := cluster.NewNode(cluster.Config{
		ID:       cluster.MemberID(o.id),
		Dir:      o.dir,
		Replicas: o.replicas,
		Registry: o.reg,
		Trace:    o.hub,
		Log:      o.log,
		Health:   o.health,
		SLO:      o.slo,
		Pprof:    o.pprof,
	})
	if err != nil {
		fail(err)
	}
	if err := n.Start(o.addr); err != nil {
		fail(err)
	}
	// Re-register any sessions persisted under -dir from a previous
	// life — always as followers; Reconcile decides who leads.
	if err := n.Recover(); err != nil {
		o.log.Warn("recovery warning", "component", "cluster", "member", o.id, "err", err.Error())
	}
	if o.join != "" {
		if err := n.JoinCluster(o.join); err != nil {
			fail(fmt.Errorf("joining via %s: %w", o.join, err))
		}
	}
	// Recovered and joined: this member is ready to take traffic.
	o.health.Set(true, "")
	o.log.Info("cluster member up", "component", "cluster", "member", o.id, "addr", n.Addr(), "dir", o.dir)

	done := make(chan struct{})
	go func() {
		n.Run(done, o.interval)
	}()
	if o.canary {
		// Cluster-surface canary against our own listener: the session
		// it probes is placed by rendezvous like any tenant, so the
		// probes exercise routing, replication, and failover for real.
		pr := canary.New(canary.Config{
			Target: n.Addr(), Cluster: true, Registry: o.reg, Log: o.log,
		})
		go pr.Run(done)
	}
	<-ctx.Done()
	close(done)
	// Readiness goes first, then the drain: peers and balancers see the
	// 503 while sessions are still flushing.
	o.health.Set(false, "draining")
	o.log.Info("draining sessions", "component", "cluster", "member", o.id)
	if err := n.Stop(); err != nil {
		fail(err)
	}
	o.log.Info("bye", "component", "cluster", "member", o.id)
}

func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cdmaserved: %v\n", err)
	os.Exit(1)
}
