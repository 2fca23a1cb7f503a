package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	rpprof "runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Config parameterizes one cluster member.
type Config struct {
	// ID is the member's stable identity (required, unique in the
	// cluster).
	ID MemberID
	// Dir is the WAL root for this member's sessions and replicas
	// (required: a cluster member is always durable).
	Dir string
	// Replicas is R, the number of follower replicas per session
	// (default 1).
	Replicas int
	// FailAfter is the number of gossip ticks without heartbeat
	// progress before a member is declared dead (default 3).
	FailAfter int
	// Fanout is the number of peers gossiped with per tick (default 2).
	Fanout int
	// Seed feeds the gossip peer selection.
	Seed uint64
	// ShipBacklog caps the decoded records each led session's shared
	// feed retains in memory for unacknowledged followers (default
	// 4096); followers that fall further behind catch up by snapshot
	// transfer instead.
	ShipBacklog int
	// Registry, when set, receives the member's cluster metrics and is
	// handed to the session manager so every hosted session registers
	// its serve metrics there too; the Handler then exposes it at
	// GET /metrics. nil leaves the member uninstrumented.
	Registry *obs.Registry
	// Trace, when set, collects per-session event traces (ship and
	// follower-ack stages here, apply/fsync stages in serve), exposed at
	// GET /debug/trace/{session}.
	Trace *obs.TraceHub
	// Log receives the member's structured log lines. nil defaults to a
	// stderr logger at info level (the operator-visible errors Run used
	// to print raw keep flowing).
	Log *obs.Logger
	// Health, when set, is served at GET /readyz (and /healthz always
	// answers 200). The process owner flips it: ready after recovery and
	// join, not-ready when draining.
	Health *obs.Health
	// Pprof mounts net/http/pprof under /debug/pprof/ on the member's
	// handler (off by default: profiling endpoints are opt-in).
	Pprof bool
	// SLO, when set, is evaluated once per Run interval against
	// Registry and served at GET /slo; objectives marked Critical
	// degrade Health while breached. nil serves empty verdicts.
	SLO *obs.SLO
	// Transport, when set, is the base RoundTripper for every outbound
	// HTTP client the member runs — gossip and ship traffic, the adopt
	// RPC, and metric/trace scrapes alike. It is the seam the chaos
	// fault injector (internal/chaos) threads through to cut, delay, or
	// black-hole individual links. nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// RequireQuorum picks the partition policy. When true the member is
	// CP: it refuses client writes, session creation, and unilateral
	// failover promotion while it cannot see a strict majority of the
	// known cluster, so a network partition can never produce two
	// accepting leaders. When false (the default) the member is AP in
	// the seed's last-survivor spirit: any owner may promote when the
	// leader looks dead — even a lone survivor — and a healed partition
	// relies on the leadership-epoch rule to pick one winner, discarding
	// whatever the losing side acked meanwhile.
	RequireQuorum bool
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// primaryState is a session this member leads: its wire config, the
// shared WAL feed every follower's shipper reads from, one shipper
// (cursor) per follower, and the coordinated-compaction state.
type primaryState struct {
	cfg      SessionConfig
	feed     *walFeed
	shippers map[MemberID]*shipper
	// pendingBarrier is a compaction barrier already written to the led
	// session's WAL but whose compaction has not run yet; lastCompact is
	// the seq of the last barrier that completed (paces CompactEvery).
	// barrierAt is when the pending barrier was logged — the primary
	// side of the barrier-to-compaction latency SLI.
	pendingBarrier int
	lastCompact    int
	barrierAt      time.Time
}

func newPrimaryState(cfg SessionConfig, backlog int) *primaryState {
	return &primaryState{cfg: cfg, feed: newWALFeed(backlog), shippers: make(map[MemberID]*shipper)}
}

// followerState is a session this member replicates and who it believes
// is currently shipping to it — the leader whose death triggers a
// unilateral promotion.
type followerState struct {
	cfg     SessionConfig
	primary MemberID
	// Barrier-to-compaction tracking (follower side of the SLI):
	// barrierSeq/barrierAt record the newest barrier seen in a ship
	// header and when; barrierDone the newest barrier this member has
	// compacted behind.
	barrierSeq  int
	barrierAt   time.Time
	barrierDone int
}

// Node is one cluster member: a serve.Manager for the sessions it
// leads, serve.Replicas for the sessions it follows, a gossip
// membership table, and the placement/shipping/failover control logic.
// The steady-state driver is Tick + ShipAll + Reconcile, run by the
// daemon loop (Run) or explicitly by tests.
type Node struct {
	cfg    Config
	ms     *Membership
	mgr    *serve.Manager
	client *http.Client
	// adoptClient carries the adopt RPC only: the adoptee replays its
	// full log before answering, and a short transport timeout there is
	// precisely what risks a dual-primary race (the old primary gives
	// up while the promotion is still in flight).
	adoptClient *http.Client
	// scrapeClient carries /cluster/metrics fan-out scrapes only: a
	// short timeout so one wedged member cannot stall the fleet page.
	scrapeClient *http.Client

	obs nodeObs

	mu        sync.Mutex
	primaries map[string]*primaryState
	followers map[string]*followerState

	// readRR rotates /cluster/route?read=1 answers across a session's
	// owner set so read traffic spreads over primary and followers.
	readRR atomic.Uint64

	// clockMu guards offsets: per-peer NTP-style clock-offset estimates
	// (peer clock minus local clock, in nanoseconds), sampled from every
	// gossip exchange and every acknowledged ship batch. The trace
	// collector aligns remote flight-recorder timestamps with them.
	clockMu sync.Mutex
	offsets map[MemberID]clockEstimate

	srv *http.Server
	ln  net.Listener
}

// NewNode builds a member. Call Start to bind its HTTP endpoint and
// JoinCluster to introduce it to an existing member.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, errors.New("cluster: member needs an ID")
	}
	if cfg.Dir == "" {
		return nil, errors.New("cluster: member needs a WAL directory")
	}
	log := cfg.Log
	if log == nil {
		log = obs.NewLogger(os.Stderr, obs.LevelInfo)
	}
	n := &Node{
		cfg:          cfg,
		ms:           NewMembership(cfg.ID, cfg.FailAfter, cfg.Fanout, cfg.Seed),
		mgr:          serve.NewManager(cfg.Dir),
		client:       &http.Client{Timeout: 10 * time.Second, Transport: cfg.Transport},
		adoptClient:  &http.Client{Timeout: 5 * time.Minute, Transport: cfg.Transport},
		scrapeClient: &http.Client{Timeout: fleetScrapeTimeout, Transport: cfg.Transport},
		obs:          newNodeObs(cfg.Registry, cfg.Trace, log),
		primaries:    make(map[string]*primaryState),
		followers:    make(map[string]*followerState),
		offsets:      make(map[MemberID]clockEstimate),
	}
	// Stamp the member identity into the trace rings so a fleet-merged
	// timeline can tell this member's records from a peer's.
	cfg.Trace.SetMember(string(cfg.ID))
	n.mgr.Instrument(serve.NewMetrics(cfg.Registry, cfg.Trace))
	return n, nil
}

// Manager exposes the member's session manager (in-process callers and
// tests).
func (n *Node) Manager() *serve.Manager { return n.mgr }

// Membership exposes the member's liveness table.
func (n *Node) Membership() *Membership { return n.ms }

// ID returns the member's identity.
func (n *Node) ID() MemberID { return n.cfg.ID }

// Start binds the member's HTTP endpoint (addr like "127.0.0.1:0") and
// begins serving cluster and session requests.
func (n *Node) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.ln = ln
	n.ms.SetAddr(ln.Addr().String())
	n.srv = &http.Server{Handler: n.Handler()}
	go n.srv.Serve(ln)
	return nil
}

// Addr returns the bound address (valid after Start).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// JoinCluster introduces this member to the cluster through any
// existing member's address: one immediate gossip exchange.
func (n *Node) JoinCluster(seedAddr string) error {
	got, err := n.gossipExchange(seedAddr, n.ms.Table())
	if err != nil {
		return err
	}
	n.ms.Merge(got)
	return nil
}

// Tick advances one gossip round (heartbeat bump + push-pull with
// random live peers) and folds the resulting liveness transitions into
// the membership metrics.
func (n *Node) Tick() {
	prev := aliveIDs(n.ms.Alive())
	n.ms.Tick(n.gossipExchange)
	alive := n.ms.Alive()
	n.obs.gossipRounds.Inc()
	n.obs.membersAlive.Set(int64(len(alive)))
	cur := aliveIDs(alive)
	for id := range cur {
		if !prev[id] {
			n.obs.memberJoins.Inc()
			n.obs.log.Info("member alive", "component", "cluster", "member", string(n.cfg.ID), "peer", string(id))
		}
	}
	for id := range prev {
		if !cur[id] {
			n.obs.memberFails.Inc()
			n.obs.log.Warn("member failed", "component", "cluster", "member", string(n.cfg.ID), "peer", string(id))
		}
	}
}

func aliveIDs(ms []Member) map[MemberID]bool {
	set := make(map[MemberID]bool, len(ms))
	for _, m := range ms {
		set[m.ID] = true
	}
	return set
}

func (n *Node) gossipExchange(addr string, table []Member) ([]Member, error) {
	t0 := time.Now().UnixNano()
	b, err := json.Marshal(gossipMsg{From: n.cfg.ID, Members: table, SentUnixNs: t0})
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Post("http://"+addr+"/cluster/gossip", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: gossip with %s: %s", addr, resp.Status)
	}
	var got gossipMsg
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return nil, err
	}
	// Every gossip round doubles as one NTP-style clock sample: t0/t3
	// are our send/receive times, t1/t2 the peer's receive/send times.
	n.noteClockSample(got.From, t0, got.RecvUnixNs, got.SentUnixNs, time.Now().UnixNano())
	return got.Members, nil
}

// clockEstimate is one peer's smoothed clock-offset estimate.
type clockEstimate struct {
	offsetNs int64 // peer clock minus local clock
	rttNs    int64 // smoothed sample round-trip time
	samples  int64
}

// noteClockSample folds one NTP-style four-timestamp sample into the
// peer's offset estimate: offset = ((t1-t0)+(t2-t3))/2, rtt =
// (t3-t0)-(t2-t1). Samples are EWMA-smoothed (alpha 1/4) so one
// scheduling hiccup does not yank the estimate; nonsensical samples
// (negative RTT, missing timestamps) are dropped.
func (n *Node) noteClockSample(peer MemberID, t0, t1, t2, t3 int64) {
	if peer == "" || peer == n.cfg.ID || t1 == 0 || t2 == 0 {
		return
	}
	rtt := (t3 - t0) - (t2 - t1)
	if rtt < 0 {
		return
	}
	off := ((t1 - t0) + (t2 - t3)) / 2
	n.clockMu.Lock()
	est := n.offsets[peer]
	if est.samples == 0 {
		est = clockEstimate{offsetNs: off, rttNs: rtt, samples: 1}
	} else {
		est.offsetNs += (off - est.offsetNs) / 4
		est.rttNs += (rtt - est.rttNs) / 4
		est.samples++
	}
	n.offsets[peer] = est
	n.clockMu.Unlock()
}

// offsetOf returns the peer's estimated clock offset relative to this
// member (0 when no sample has been taken yet — timelines then merge
// unaligned, and the causality clamp flags whatever skew remains).
func (n *Node) offsetOf(peer MemberID) int64 {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	return n.offsets[peer].offsetNs
}

// Stop shuts the member down gracefully: HTTP first, then every
// session and replica (final WAL sync).
func (n *Node) Stop() error {
	if n.srv != nil {
		n.srv.Close()
	}
	return n.mgr.CloseAll()
}

// Crash simulates the process dying: the HTTP endpoint drops
// mid-flight, gossip stops (the member simply never ticks again), and
// every session and replica is aborted — no final flush, snapshot, or
// fsync beyond what group commits already pushed to the OS. The
// failover tests kill primaries with it.
func (n *Node) Crash() {
	if n.srv != nil {
		n.srv.Close()
	}
	n.mgr.Abort()
}

// walDir returns the on-disk WAL directory of one of this member's
// sessions (the manager owns the layout).
func (n *Node) walDir(session string) string {
	p, err := n.mgr.WALDir(session)
	if err != nil {
		return "" // invalid id; TailWAL will fail loudly
	}
	return p
}

// cfgPath is where a session's SessionConfig is persisted beside its
// WAL — the piece of state (mailbox and WAL settings, compaction
// cadence, epoch) the WAL snapshot alone cannot reconstruct on a
// process restart.
func (n *Node) cfgPath(session string) string {
	return filepath.Join(n.cfg.Dir, session+".cfg")
}

func (n *Node) persistSessionConfig(session string, cfg SessionConfig) error {
	if err := os.MkdirAll(n.cfg.Dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(n.cfgPath(session), b, 0o644)
}

func (n *Node) readSessionConfig(session string) (SessionConfig, error) {
	b, err := os.ReadFile(n.cfgPath(session))
	if err != nil {
		return SessionConfig{}, err
	}
	var cfg SessionConfig
	if err := json.Unmarshal(b, &cfg); err != nil {
		return SessionConfig{}, err
	}
	return cfg, nil
}

// Recover re-registers every session persisted under the member's WAL
// root after a process restart — ALWAYS as a follower replica, even
// for sessions this member used to lead: leadership is decided by
// Reconcile's promotion rule (placement rank + who actually holds the
// freshest data), never assumed from before the restart. Call it after
// Start and before the first Reconcile.
func (n *Node) Recover() error {
	ents, err := os.ReadDir(n.cfg.Dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var first error
	for _, e := range ents {
		id, ok := strings.CutSuffix(e.Name(), ".cfg")
		if !ok {
			continue
		}
		cfg, err := n.readSessionConfig(id)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		if _, err := n.mgr.OpenReplica(id, cfg.serveConfig()); err != nil {
			if first == nil {
				first = fmt.Errorf("cluster: recover %q: %w", id, err)
			}
			continue
		}
		n.mu.Lock()
		// The pre-restart primary is unknown (and possibly gone); the
		// empty MemberID is never alive, so Reconcile treats the
		// session as failed over and runs the promotion rule.
		n.followers[id] = &followerState{cfg: cfg}
		n.mu.Unlock()
	}
	return first
}

// CreateSession creates a replicated session led by this member. The
// caller (the HTTP create handler, or a test) must have established via
// placement that this member is the session's rendezvous primary.
func (n *Node) CreateSession(id string, cfg SessionConfig) (*serve.Session, error) {
	if cfg.Epoch == 0 {
		cfg.Epoch = 1 // first leadership generation; clients never set it
	}
	s, err := n.mgr.Create(id, cfg.serveConfig())
	if err != nil {
		return nil, err
	}
	if err := n.persistSessionConfig(id, cfg); err != nil {
		n.mgr.Close(id)
		return nil, err
	}
	n.mu.Lock()
	n.primaries[id] = newPrimaryState(cfg, n.cfg.ShipBacklog)
	n.mu.Unlock()
	n.syncShippers(id)
	return s, nil
}

// syncShippers aligns a led session's shipper set with the current
// rendezvous follower set.
func (n *Node) syncShippers(id string) {
	alive := n.ms.Alive()
	owners := Owners(id, alive, n.cfg.Replicas+1)
	n.mu.Lock()
	defer n.mu.Unlock()
	ps, ok := n.primaries[id]
	if !ok {
		return
	}
	want := make(map[MemberID]bool)
	for _, m := range owners {
		if m.ID != n.cfg.ID {
			want[m.ID] = true
		}
	}
	for fid := range ps.shippers {
		if !want[fid] {
			delete(ps.shippers, fid)
		}
	}
	for fid := range want {
		if _, ok := ps.shippers[fid]; !ok {
			sh := newShipper(id, fid, ps.cfg)
			sh.obs = n.obs.forShipper(id, fid)
			ps.shippers[fid] = sh
		}
	}
}

// ShipAll runs one replication round for every led session: barrier the
// session (publishing its WAL bytes), tail the log, and push unacked
// batches to every follower. Unreachable followers keep their backlog
// and catch up on a later round.
func (n *Node) ShipAll() error {
	n.mu.Lock()
	ids := make([]string, 0, len(n.primaries))
	for id := range n.primaries {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	sort.Strings(ids)
	var first error
	for _, id := range ids {
		if err := n.ShipSession(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShipSession runs one replication round for one led session,
// returning the first shipping error (an unreachable follower is not an
// error; its backlog just stays pending). The session's WAL is read
// ONCE per round through the shared feed — every follower's shipper is
// a cursor into the same decoded window — and, when the session has a
// CompactEvery budget, a fully caught-up round advances the coordinated
// compaction state machine.
func (n *Node) ShipSession(id string) error {
	s, ok := n.mgr.Get(id)
	if !ok {
		return nil // being handed off or closed; nothing to ship
	}
	// Publish every accepted event's bytes to the log before tailing.
	if err := s.Barrier(); err != nil {
		return err
	}
	n.mu.Lock()
	ps, ok := n.primaries[id]
	if !ok {
		n.mu.Unlock()
		return nil
	}
	fd := ps.feed
	shs := make([]*shipper, 0, len(ps.shippers))
	for _, sh := range ps.shippers {
		shs = append(shs, sh)
	}
	n.mu.Unlock()
	sort.Slice(shs, func(i, j int) bool { return shs[i].follower < shs[j].follower })

	// Label the shipping work per session so -pprof CPU profiles
	// attribute replication cost alongside writer/replica work. One
	// label scope per ship call — nothing on the batch-assembly path.
	var err error
	rpprof.Do(context.Background(), rpprof.Labels("session", id, "role", "shipper"), func(context.Context) {
		err = n.shipRounds(id, fd, shs)
	})
	var lc *leaderConflict
	if errors.As(err, &lc) {
		return n.resolveLeaderConflict(id, lc)
	}
	if cerr := n.maybeCompact(id, ps, fd, shs); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// leaderConflict reports that a ship request was refused by a peer that
// itself claims to LEAD the session — the dual-primary state a healed
// partition leaves behind. resolveLeaderConflict settles it.
type leaderConflict struct {
	session string
	peer    MemberID
	addr    string
}

func (e *leaderConflict) Error() string {
	return fmt.Sprintf("cluster: %s also leads %q", e.peer, e.session)
}

// resolveLeaderConflict settles a dual-primary conflict
// deterministically: the lower epoch (the leadership generation
// superseded by a quorum-side promotion) yields; ties — possible only
// through pathological histories — break by seq, then rendezvous score,
// so both sides compute the SAME winner from the same probes. The loser
// wipes its copy (its unshipped tail was already forfeited by the
// failover that bumped the epoch) and rebuilds from the winner via the
// normal snapshot catch-up on the winner's next ship round. If this
// member wins, it keeps leading and does nothing — the peer runs the
// same comparison from its side and yields.
func (n *Node) resolveLeaderConflict(id string, lc *leaderConflict) error {
	ps, ok := n.localPrimary(id)
	if !ok {
		return nil // already resolved (yielded or demoted) meanwhile
	}
	h, err := n.holds(lc.addr, id)
	if err != nil || !h.Session {
		return nil // peer unreachable or no longer leading; retry later
	}
	mySeq := 0
	if s, ok := n.mgr.Get(id); ok {
		mySeq = s.View().Seq()
	}
	myEpoch := ps.cfg.Epoch
	peerWins := h.Epoch > myEpoch ||
		(h.Epoch == myEpoch && (h.Seq > mySeq ||
			(h.Seq == mySeq && rendezvousScore(lc.peer, id) > rendezvousScore(n.cfg.ID, id))))
	if !peerWins {
		n.obs.log.Warn("leadership conflict: peer holds a superseded epoch; keeping leadership",
			"component", "cluster", "member", string(n.cfg.ID), "session", id,
			"peer", string(lc.peer), "epoch", fmt.Sprint(myEpoch), "peer_epoch", fmt.Sprint(h.Epoch))
		return nil
	}
	return n.yieldLeadership(id, lc.peer)
}

// yieldLeadership steps a led session down after losing a leadership
// conflict: close it, wipe its WAL and sidecar — the local history may
// have forked from the winner's, so no byte of it may survive into the
// replica — and let the winner's next ship round rebuild this member
// as a follower by snapshot catch-up.
func (n *Node) yieldLeadership(id string, winner MemberID) error {
	n.mu.Lock()
	if _, ok := n.primaries[id]; !ok {
		n.mu.Unlock()
		return nil
	}
	delete(n.primaries, id)
	n.mu.Unlock()
	if _, live := n.mgr.Get(id); live {
		if err := n.mgr.Close(id); err != nil {
			return err
		}
	}
	if dir := n.walDir(id); dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	os.Remove(n.cfgPath(id))
	n.obs.leaderYields.Inc()
	n.obs.log.Warn("leadership yielded after conflict", "component", "cluster",
		"member", string(n.cfg.ID), "session", id, "to", string(winner))
	return nil
}

// shipRounds drives pull → batch → ack rounds over one session's
// shared feed until every given follower is as caught up as it will get
// this call: the feed refills its bounded window from the log between
// rounds (pruning what everyone has acknowledged) and the loop ends
// when no follower advanced.
func (n *Node) shipRounds(id string, fd *walFeed, shs []*shipper) error {
	dir := n.walDir(id)
	var first error
	for {
		fd.prune(minAcked(fd, shs))
		if err := fd.pull(dir); err != nil {
			return err
		}
		progress := false
		for _, sh := range shs {
			adv, err := n.shipOne(fd, sh)
			if err != nil && first == nil {
				first = err
			}
			progress = progress || adv
		}
		if !progress {
			return first
		}
	}
}

// minAcked is the backlog horizon the feed may prune to: the smallest
// acknowledged offset among the current followers (everything, when
// there are none).
func minAcked(fd *walFeed, shs []*shipper) int {
	if len(shs) == 0 {
		return fd.endSeq()
	}
	m := -1
	for _, sh := range shs {
		sh.mu.Lock()
		a := sh.acked
		sh.mu.Unlock()
		if m < 0 || a < m {
			m = a
		}
	}
	return m
}

// shipOne advances one follower through the feed's current window:
// push bounded batches (maxShipEvents each), fold the acks back in.
// It stops on an unreachable follower, on lack of progress, or when the
// window is exhausted; advanced reports whether the follower's state
// moved (an acknowledgment advanced, or first contact was made).
func (n *Node) shipOne(fd *walFeed, sh *shipper) (advanced bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.obs.lagRecords != nil {
		defer func() {
			// Publish the link's lag SLIs where this round left it: how
			// many records the follower's ack trails the feed by, and how
			// old the oldest unacknowledged record is.
			sh.obs.lagRecords.Set(int64(fd.endSeq() - sh.acked))
			sh.obs.lagSeconds.Set(fd.lagSeconds(sh.acked, time.Now().UnixNano()))
		}()
	}
	for {
		batch, ok := sh.next(fd, n.cfg.ID)
		if !ok {
			return advanced, nil // nothing pending for this follower
		}
		addr, ok := n.addrOf(sh.follower)
		if !ok {
			return advanced, nil // follower not reachable through the table right now
		}
		var resp shipResp
		if err := n.postShip(addr, "/cluster/ship/"+sh.session, batch.body, &resp); err != nil {
			var he *httpError
			if errors.As(err, &he) {
				if he.status == http.StatusConflict {
					// The peer claims to LEAD this session — two leaders
					// exist (a healed partition). Hand the typed conflict
					// up; ShipSession resolves it by epoch comparison.
					return advanced, &leaderConflict{session: sh.session, peer: sh.follower, addr: addr}
				}
				// The follower is reachable and refusing (poisoned
				// replica, stale epoch): surface it — silence here would
				// hide a permanently dead replication link.
				return advanced, fmt.Errorf("cluster: ship %q to %s: %w", sh.session, sh.follower, err)
			}
			return advanced, nil // unreachable follower: backlog stays pending
		}
		first := !sh.contacted
		sh.contacted = true
		if resp.Gap {
			// The follower could not apply this batch or catch up by
			// snapshot right now; leave its backlog pending.
			return advanced, nil
		}
		ackNs := time.Now().UnixNano()
		// Each acknowledged batch is one more clock sample for the
		// follower (t0 = assembly, t1/t2 = the follower's receive/ack
		// stamps, t3 = now).
		n.noteClockSample(sh.follower, batch.sentNs, resp.RecvUnixNs, resp.AckUnixNs, ackNs)
		prev := sh.acked
		if resp.Acked > sh.acked {
			sh.acked = resp.Acked
		}
		sh.barrierSent = batch.barrier
		sh.obs.batches.Inc()
		if batch.count > 0 && sh.obs.rtt != nil {
			// The RTT of a non-empty acknowledged batch covers the
			// follower's append+apply+fsync; its exemplar is the batch's
			// last seq, the timeline /cluster/trace fetches.
			sh.obs.rtt.ObserveExemplar(float64(ackNs-batch.sentNs)/1e9, int64(batch.from+batch.count-1))
		}
		if sh.acked > prev {
			sh.obs.records.Add(int64(sh.acked - prev))
			sh.obs.tracer.Record(int64(sh.acked), obs.StageFollowerAck)
		}
		if batch.count > 0 {
			sh.obs.tracer.RecordAt(int64(batch.from+batch.count-1), obs.StageShip, batch.sentNs)
		}
		if sh.acked > prev || first {
			advanced = true
		}
		if sh.acked <= prev && !first {
			return advanced, nil // follower not advancing; avoid a hot loop
		}
	}
}

// maybeCompact advances coordinated compaction for a led session, one
// step per fully quiesced ship round. Truncation is gated on total
// agreement — the feed has read everything the session applied and
// every follower has acknowledged exactly that — so retiring sealed
// segments can never cut records out from under a shipper or a lagging
// replica. Step one writes a barrier record (shipped in-stream;
// followers compact their own logs behind it); step two, a later round,
// compacts the primary's log.
func (n *Node) maybeCompact(id string, ps *primaryState, fd *walFeed, shs []*shipper) error {
	n.mu.Lock()
	ce := ps.cfg.CompactEvery
	pending := ps.pendingBarrier
	last := ps.lastCompact
	n.mu.Unlock()
	if ce <= 0 {
		return nil
	}
	s, ok := n.mgr.Get(id)
	if !ok {
		return nil
	}
	seq := s.View().Seq()
	if fd.endSeq() != seq {
		return nil // feed behind the session; not quiesced
	}
	for _, sh := range shs {
		sh.mu.Lock()
		a := sh.acked
		sh.mu.Unlock()
		if a != seq {
			return nil // a follower lags; truncating now could strand it
		}
	}
	if pending > 0 {
		// Every follower has acknowledged past the barrier (they are at
		// seq >= pending): retire the primary's sealed prefix. The feed
		// repositions itself at the fresh snapshot on its next pull.
		if err := s.Compact(); err != nil {
			return err
		}
		n.mu.Lock()
		ps.lastCompact = pending
		ps.pendingBarrier = 0
		at := ps.barrierAt
		ps.barrierAt = time.Time{}
		n.mu.Unlock()
		if !at.IsZero() {
			n.obs.barrierPrimary.ObserveSince(at)
		}
		n.obs.log.Debug("compacted", "component", "cluster", "member", string(n.cfg.ID), "session", id, "barrier", fmt.Sprint(pending))
		return nil
	}
	if seq-last < ce {
		return nil
	}
	bseq, err := s.MarkCompactBarrier()
	if err != nil {
		return err
	}
	n.mu.Lock()
	ps.pendingBarrier = bseq
	ps.barrierAt = time.Now()
	n.mu.Unlock()
	return nil
}

// AckedOffsets reports, for a led session, every follower's
// acknowledged sequence number — the durability horizon a failover
// preserves.
func (n *Node) AckedOffsets(id string) map[MemberID]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps, ok := n.primaries[id]
	if !ok {
		return nil
	}
	out := make(map[MemberID]int, len(ps.shippers))
	for fid, sh := range ps.shippers {
		sh.mu.Lock()
		out[fid] = sh.acked
		sh.mu.Unlock()
	}
	return out
}

// addrOf resolves a member's current address from the membership table.
func (n *Node) addrOf(id MemberID) (string, bool) {
	for _, m := range n.ms.Table() {
		if m.ID == id {
			return m.Addr, m.Addr != ""
		}
	}
	return "", false
}

// httpError is a non-2xx response from a reachable peer — distinct
// from a transport failure, which may heal on its own. Callers that
// tolerate unreachable peers must still surface these: the peer
// answered and said no.
type httpError struct {
	status int
	detail string
}

func (e *httpError) Error() string { return e.detail }

// postShip posts a pre-assembled ship body (JSON header line + raw WAL
// frames) and decodes the JSON acknowledgement. The body bytes were
// encoded exactly once by the shipper; this path never re-marshals.
func (n *Node) postShip(addr, path string, body []byte, out interface{}) error {
	resp, err := n.client.Post("http://"+addr+path, shipContentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return &httpError{status: resp.StatusCode, detail: fmt.Sprintf("cluster: POST %s%s: %s: %s", addr, path, resp.Status, e.Error)}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (n *Node) postJSONWith(c *http.Client, addr, path string, body, out interface{}) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post("http://"+addr+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return &httpError{status: resp.StatusCode, detail: fmt.Sprintf("cluster: POST %s%s: %s: %s", addr, path, resp.Status, e.Error)}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Reconcile drives placement toward the membership table's current
// truth: led sessions whose rendezvous primary moved are handed off,
// replicas whose leader died are promoted, and shipper sets follow the
// follower sets. One call performs one convergence step; the daemon
// loop calls it every tick.
func (n *Node) Reconcile() error {
	alive := n.ms.Alive()

	n.mu.Lock()
	led := make([]string, 0, len(n.primaries))
	for id := range n.primaries {
		led = append(led, id)
	}
	followed := make([]string, 0, len(n.followers))
	for id := range n.followers {
		followed = append(followed, id)
	}
	n.mu.Unlock()
	sort.Strings(led)
	sort.Strings(followed)

	var first error
	for _, id := range led {
		owners := Owners(id, alive, n.cfg.Replicas+1)
		if len(owners) == 0 {
			continue
		}
		if owners[0].ID == n.cfg.ID {
			n.syncShippers(id)
			continue
		}
		if err := n.handoff(id, owners[0]); err != nil && first == nil {
			first = err
		}
	}
	for _, id := range followed {
		// Copy the follower's leader under the lock: every ship request
		// rewrites fs.primary concurrently with this loop.
		n.mu.Lock()
		fs, ok := n.followers[id]
		var fsPrimary MemberID
		if ok {
			fsPrimary = fs.primary
		}
		n.mu.Unlock()
		if !ok {
			continue
		}
		owners := Owners(id, alive, n.cfg.Replicas+1)
		rank := -1 // self's position in the owner list
		for i, m := range owners {
			if m.ID == n.cfg.ID {
				rank = i
			}
		}
		primaryAlive := n.ms.IsAlive(fsPrimary)
		if rank < 0 {
			// Rendezvous moved this replica elsewhere. Decommission it
			// once the session is demonstrably healthy without us —
			// its leader is alive, or the placement primary already
			// serves it — so a stale orphan can never be promoted
			// after a much later failure and roll the session back
			// past acknowledged writes. While the session is unserved
			// we keep the copy: it might be the last one.
			healthy := primaryAlive
			if !healthy && len(owners) > 0 {
				healthy = n.hostsSession(owners[0].Addr, id)
			}
			if healthy {
				n.mgr.CloseReplica(id)
				os.Remove(n.cfgPath(id))
				n.mu.Lock()
				delete(n.followers, id)
				n.mu.Unlock()
			}
			continue
		}
		if primaryAlive {
			// Rebalance in progress (or steady state): a live leader
			// hands off via /cluster/adopt; a unilateral grab here
			// would fork the session.
			continue
		}
		if n.cfg.RequireQuorum && !n.ms.Quorum() {
			// The leader looks dead, but so does a majority of the
			// cluster: this member is the one inside a partition.
			// Promoting here would put a second leader on the minority
			// side — exactly the fork the epoch rule would then have to
			// kill. The majority side promotes; we wait for heal.
			continue
		}
		// The leader is dead and we are an owner holding a replica.
		// Promote unless some other live owner already serves the
		// session, or holds strictly fresher data, or holds equally
		// fresh data at a better rank — the probe (/cluster/holds)
		// makes the rule survive owners with no data at all (a member
		// that joined mid-failover) and full-fleet restarts (everyone
		// recovers as a follower; the freshest copy wins).
		rep, ok := n.mgr.GetReplica(id)
		if !ok {
			continue
		}
		mySeq := rep.Seq()
		eligible := true
		for i, m := range owners {
			if m.ID == n.cfg.ID {
				continue
			}
			h, _ := n.holds(m.Addr, id)
			if h.Session || (h.Replica && (h.Seq > mySeq || (h.Seq == mySeq && i < rank))) {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		if err := n.promote(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// holdsInfo is a peer's answer to /cluster/holds: whether it serves or
// replicates the session, at what sequence, and — when it leads — at
// what leadership epoch.
type holdsInfo struct {
	Session bool `json:"session"`
	Replica bool `json:"replica"`
	Seq     int  `json:"seq"`
	Epoch   int  `json:"epoch"`
}

// holds asks a peer whether it currently serves or replicates a
// session, and at what replica offset and epoch (unreachable peers
// count as holding nothing — in the crash-stop failure model an
// unreachable member is a dead one; the error lets callers that need
// to distinguish do so).
func (n *Node) holds(addr, id string) (holdsInfo, error) {
	resp, err := n.client.Get("http://" + addr + "/cluster/holds/" + id)
	if err != nil {
		return holdsInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return holdsInfo{}, fmt.Errorf("cluster: holds probe of %s: %s", addr, resp.Status)
	}
	var out holdsInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return holdsInfo{}, err
	}
	return out, nil
}

// handoff moves a led session to its new rendezvous primary. Ordering
// is what makes it lossless and fork-free: writes are frozen FIRST
// (the session leaves the local registry, so late clients get
// redirects and retry), THEN the final, closed log is shipped to
// completion, and only a fully caught-up adoptee is asked to promote.
// No sequence captured before the freeze can be stale, so no
// acknowledged write is ever dropped by a rebalance.
func (n *Node) handoff(id string, newPrimary Member) error {
	t0 := time.Now()
	n.mu.Lock()
	ps, ok := n.primaries[id]
	if !ok {
		n.mu.Unlock()
		return nil
	}
	sh, ok := ps.shippers[newPrimary.ID]
	if !ok {
		sh = newShipper(id, newPrimary.ID, ps.cfg)
		sh.obs = n.obs.forShipper(id, newPrimary.ID)
		ps.shippers[newPrimary.ID] = sh
	}
	cfg := ps.cfg
	fd := ps.feed
	n.mu.Unlock()

	// Freeze writes. Close flushes and fsyncs the WAL, making it the
	// session's complete, final history.
	if _, live := n.mgr.Get(id); live {
		if err := n.mgr.Close(id); err != nil {
			return err
		}
	}
	// resume reopens the session locally when the handoff cannot
	// complete this round — the session stays available under the old
	// primary and a later Reconcile retries.
	resume := func(err error) error {
		if _, rerr := n.mgr.Open(id, cfg.serveConfig()); rerr != nil {
			return fmt.Errorf("cluster: handoff of %q aborted (%v) and local reopen failed: %w", id, err, rerr)
		}
		return err
	}

	// Ship the closed log to completion through the shared feed.
	if err := n.shipRounds(id, fd, []*shipper{sh}); err != nil {
		var lc *leaderConflict
		if errors.As(err, &lc) {
			// The adoptee ALREADY leads (a healed partition, and the
			// rendezvous points back at a member that promoted while we
			// were cut off). Settle by epoch like any dual-primary: if
			// we lose, yield instead of reopening — reopening would keep
			// the fork alive.
			if rerr := n.resolveLeaderConflict(id, lc); rerr != nil {
				return rerr
			}
			if _, stillLeads := n.localPrimary(id); !stillLeads {
				return nil // yielded; the winner ships us a fresh copy
			}
		}
		return resume(err)
	}
	sh.mu.Lock()
	acked := sh.acked
	caughtUp := sh.contacted && acked == fd.endSeq()
	sh.mu.Unlock()
	if !caughtUp {
		return resume(nil) // adoptee lagging or unreachable; retry later
	}

	adopt := adoptReq{Session: id, Config: cfg, From: n.cfg.ID}
	var resp adoptResp
	if err := n.postJSONWith(n.adoptClient, newPrimary.Addr, "/cluster/adopt/"+id, adopt, &resp); err != nil {
		// The RPC failed — but the adoptee may still have promoted, or
		// still be promoting. Resuming leadership then would fork the
		// session, the one unacceptable outcome, so give any in-flight
		// promotion a window to surface before deciding.
		for i := 0; i < 5; i++ {
			if n.hostsSession(newPrimary.Addr, id) {
				return n.demote(id, cfg, newPrimary.ID)
			}
			time.Sleep(200 * time.Millisecond)
		}
		return resume(err)
	}
	var err error
	if resp.Seq != acked {
		// The adoptee accepted the handoff but recovered a different
		// prefix than we shipped. It is authoritative now — resuming
		// would fork — so demote anyway and surface the anomaly.
		err = fmt.Errorf("cluster: handoff of %q: adoptee at seq %d, shipped-and-acked %d", id, resp.Seq, acked)
	}
	if derr := n.demote(id, cfg, newPrimary.ID); err == nil {
		err = derr
	}
	if err == nil {
		n.obs.handoffLat.ObserveSince(t0)
		n.obs.log.Info("session handed off", "component", "cluster", "member", string(n.cfg.ID), "session", id, "to", string(newPrimary.ID))
	}
	return err
}

// demote turns a led (already closed) session into a follower replica
// over its own WAL, fed by the named primary from now on.
func (n *Node) demote(id string, cfg SessionConfig, primary MemberID) error {
	n.mu.Lock()
	delete(n.primaries, id)
	n.mu.Unlock()
	if _, err := n.mgr.OpenReplica(id, cfg.serveConfig()); err != nil {
		return err
	}
	n.mu.Lock()
	n.followers[id] = &followerState{cfg: cfg, primary: primary}
	n.mu.Unlock()
	return nil
}

// hostsSession probes whether the member at addr currently serves the
// session as PRIMARY. It asks /cluster/holds — not the /v1 read path,
// which a follower also answers 200 on (follower-served reads), so a
// 200 there no longer distinguishes a leader from a warm replica.
func (n *Node) hostsSession(addr, id string) bool {
	h, _ := n.holds(addr, id)
	return h.Session
}

// promote turns a followed session into a led one through the existing
// crash-recovery path, then begins shipping to the new follower set.
// The session config comes from the follower state (populated by every
// ship request and by handleAdopt), never defaulted — a promoted
// primary must ship the exact backend shape it runs.
func (n *Node) promote(id string) error {
	t0 := time.Now()
	n.mu.Lock()
	fs, ok := n.followers[id]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: no follower state for %q", id)
	}
	s, err := n.mgr.Promote(id)
	if err != nil {
		return err
	}
	// A promotion is a new leadership generation: bump the epoch before
	// shipping a single record, so any superseded leader that resurfaces
	// (a healed partition) loses the deterministic epoch comparison and
	// yields. Persist it — a restarted process must not fall back behind
	// a generation it already claimed.
	cfg := fs.cfg
	cfg.Epoch++
	perr := n.persistSessionConfig(id, cfg)
	n.mu.Lock()
	delete(n.followers, id)
	n.primaries[id] = newPrimaryState(cfg, n.cfg.ShipBacklog)
	n.mu.Unlock()
	n.syncShippers(id)
	if perr != nil {
		return perr
	}
	n.obs.failoverLat.ObserveSince(t0)
	n.obs.log.Info("session promoted", "component", "cluster", "member", string(n.cfg.ID), "session", id, "seq", fmt.Sprint(s.View().Seq()))
	return nil
}

// Run drives the member until done closes: every interval one gossip
// tick, one replication round, and one reconcile step. Step errors go
// to the structured logger rather than being swallowed — a dead
// replication loop must be visible to the operator.
func (n *Node) Run(done <-chan struct{}, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			n.Tick()
			if err := n.ShipAll(); err != nil {
				n.obs.log.Error("ship failed", "component", "cluster", "member", string(n.cfg.ID), "err", err.Error())
			}
			if err := n.Reconcile(); err != nil {
				n.obs.log.Error("reconcile failed", "component", "cluster", "member", string(n.cfg.ID), "err", err.Error())
			}
			n.cfg.SLO.Tick(time.Now())
		}
	}
}
