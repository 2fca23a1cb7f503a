package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// adoptReq asks a member to promote its replica of a session — the
// handoff message a demoting primary sends after shipping the log to
// completion.
type adoptReq struct {
	Session string        `json:"session"`
	Config  SessionConfig `json:"config"`
	From    MemberID      `json:"from"`
}

// adoptResp reports the promoted session's sequence number, which the
// old primary cross-checks against its final seq.
type adoptResp struct {
	Seq int `json:"seq"`
}

// createReq creates a replicated session.
type createReq struct {
	ID     string        `json:"id"`
	Config SessionConfig `json:"config"`
}

// routeInfo answers /cluster/route: where a session's primary and
// followers currently are. With ?read=1 it additionally nominates Read,
// one member of the owner set chosen round-robin, as the target for a
// follower-servable read — spreading read traffic across every warm
// copy of the session instead of pinning it to the primary.
type routeInfo struct {
	Session   string   `json:"session"`
	Primary   Member   `json:"primary"`
	Followers []Member `json:"followers"`
	Read      *Member  `json:"read,omitempty"`
}

// Follower read-path tuning: how long a read with min_seq waits for the
// local replica to catch up before redirecting or failing retryably,
// and how often it polls the (lock-free) view while waiting.
const (
	defaultReadWait = 2 * time.Second
	maxReadWait     = 10 * time.Second
	readWaitPoll    = 2 * time.Millisecond
)

// Handler exposes the member over HTTP: the cluster control plane
// (gossip, route, ship, snapshot, adopt, create) plus the serve /v1
// session API. /v1 requests for sessions led locally are served by the
// live session; GET reads (status, assignment, conflicts, metrics) for
// sessions this member merely FOLLOWS are served from the replica's
// warm view, tagged with the applied seq and honoring ?min_seq=
// (wait-or-redirect, bounded staleness); everything else is
// 307-redirected to the rendezvous primary, so any member is a valid
// entry point.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	v1 := serve.NewHandler(n.mgr)

	mux.HandleFunc("POST /cluster/gossip", n.handleGossip)
	mux.HandleFunc("GET /cluster/members", n.handleMembers)
	mux.HandleFunc("GET /cluster/route", n.handleRoute)
	mux.HandleFunc("POST /cluster/sessions", n.handleCreate)
	mux.HandleFunc("POST /cluster/ship/{id}", n.handleShip)
	mux.HandleFunc("GET /cluster/snapshot/{id}", n.handleSnapshot)
	mux.HandleFunc("POST /cluster/adopt/{id}", n.handleAdopt)
	mux.HandleFunc("GET /cluster/holds/{id}", n.handleHolds)
	mux.HandleFunc("GET /cluster/metrics", n.handleFleetMetrics)
	mux.HandleFunc("GET /cluster/trace/{id}", n.handleClusterTrace)
	mux.Handle("GET /slo", n.cfg.SLO.Handler())
	if n.obs.reg != nil {
		mux.Handle("GET /metrics", n.obs.reg.Handler())
	}
	if n.obs.hub != nil {
		mux.Handle("GET /debug/trace/", n.obs.hub.Handler("/debug/trace/"))
		mux.Handle("GET /debug/slowest", n.obs.hub.Slow().Handler())
	}
	mux.HandleFunc("GET /healthz", obs.Healthz)
	if n.cfg.Health != nil {
		mux.Handle("GET /readyz", n.cfg.Health)
	}
	if n.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/v1/", n.routeV1(v1))
	return mux
}

// gossipMsg is the gossip wire envelope: the membership table plus the
// sender identity and send/receive timestamps. Every gossip round
// doubles as one NTP-style clock sample, which is how a member learns
// per-peer clock offsets without any extra protocol — the trace
// collector uses them to align cross-member timelines.
type gossipMsg struct {
	From       MemberID `json:"from,omitempty"`
	Members    []Member `json:"members"`
	SentUnixNs int64    `json:"sent_unix_ns,omitempty"`
	RecvUnixNs int64    `json:"recv_unix_ns,omitempty"`
}

func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	recvNs := time.Now().UnixNano()
	var msg gossipMsg
	if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	n.ms.Merge(msg.Members)
	writeJSON(w, http.StatusOK, gossipMsg{
		From:       n.cfg.ID,
		Members:    n.ms.Table(),
		RecvUnixNs: recvNs,
		SentUnixNs: time.Now().UnixNano(),
	})
}

func (n *Node) handleMembers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"self":  n.ms.Self(),
		"alive": n.ms.Alive(),
		"table": n.ms.Table(),
	})
}

// primaryFor computes a session's rendezvous owners among live members.
func (n *Node) primaryFor(session string) (routeInfo, bool) {
	owners := Owners(session, n.ms.Alive(), n.cfg.Replicas+1)
	if len(owners) == 0 {
		return routeInfo{}, false
	}
	return routeInfo{Session: session, Primary: owners[0], Followers: owners[1:]}, true
}

func (n *Node) handleRoute(w http.ResponseWriter, r *http.Request) {
	session := r.URL.Query().Get("session")
	if session == "" {
		httpErr(w, http.StatusBadRequest, errors.New("cluster: route needs ?session="))
		return
	}
	ri, ok := n.primaryFor(session)
	if !ok {
		httpErr(w, http.StatusServiceUnavailable, errors.New("cluster: no live members"))
		return
	}
	if r.URL.Query().Get("read") != "" {
		owners := append([]Member{ri.Primary}, ri.Followers...)
		pick := owners[int(n.readRR.Add(1))%len(owners)]
		ri.Read = &pick
	}
	writeJSON(w, http.StatusOK, ri)
}

func (n *Node) handleCreate(w http.ResponseWriter, r *http.Request) {
	// Unknown fields are rejected, not dropped: a misspelled setting
	// must not silently fall back to its default.
	var req createReq
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	if n.cfg.RequireQuorum && !n.ms.Quorum() {
		// A minority-side member must not place new sessions: its alive
		// view is wrong and the session would be created outside the
		// majority's placement.
		retryErr(w, fmt.Errorf("cluster: %s sees no membership quorum; session creation refused", n.cfg.ID))
		return
	}
	ri, ok := n.primaryFor(req.ID)
	if !ok {
		httpErr(w, http.StatusServiceUnavailable, errors.New("cluster: no live members"))
		return
	}
	if ri.Primary.ID != n.cfg.ID {
		// The rendezvous owner creates the session; send the client
		// there with its body intact.
		http.Redirect(w, r, "http://"+ri.Primary.Addr+"/cluster/sessions", http.StatusTemporaryRedirect)
		return
	}
	if _, err := n.CreateSession(req.ID, req.Config); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, serve.ErrSessionExists) || errors.Is(err, serve.ErrReplicaExists) {
			code = http.StatusConflict
		}
		httpErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, ri)
}

// decodeShipBody parses a ship request body (shipContentType): the
// JSON header line, checked against the path's session and the
// per-request event cap before anything is sized from it, then exactly
// Count event frames with contiguous seqs from From. Every error is the
// sender's fault.
func decodeShipBody(id string, body io.Reader) (shipReq, []strategy.Event, error) {
	br := bufio.NewReader(body)
	header, err := br.ReadBytes('\n')
	if err != nil {
		return shipReq{}, nil, fmt.Errorf("cluster: ship body lacks a header line: %w", err)
	}
	var req shipReq
	if err := json.Unmarshal(header, &req); err != nil {
		return shipReq{}, nil, fmt.Errorf("cluster: ship header: %w", err)
	}
	if req.Session != id {
		return shipReq{}, nil, fmt.Errorf("cluster: ship body names %q, path %q", req.Session, id)
	}
	if req.Count < 0 || req.Count > maxShipEvents {
		return shipReq{}, nil, fmt.Errorf("cluster: ship header announces %d events, want 0..%d", req.Count, maxShipEvents)
	}
	evs := make([]strategy.Event, 0, req.Count)
	sc := trace.NewRecordScanner(br)
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return shipReq{}, nil, fmt.Errorf("cluster: ship frame %d: %w", len(evs), err)
		}
		if rec.Ev == nil {
			return shipReq{}, nil, fmt.Errorf("cluster: ship frame %d is not an event record", len(evs))
		}
		if rec.Seq != req.From+len(evs) {
			return shipReq{}, nil, fmt.Errorf("cluster: ship frame %d carries seq %d, want %d", len(evs), rec.Seq, req.From+len(evs))
		}
		evs = append(evs, *rec.Ev)
	}
	if len(evs) != req.Count {
		// The frame scanner absorbs a truncated final frame as a torn
		// tail; the header's count turns that silence into a loud reject.
		return shipReq{}, nil, fmt.Errorf("cluster: ship body holds %d events, header announced %d", len(evs), req.Count)
	}
	return req, evs, nil
}

func (n *Node) handleShip(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	recvNs := time.Now().UnixNano()
	req, evs, err := decodeShipBody(id, r.Body)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	// ack echoes the batch ID and stamps receive/ack times: with the
	// shipper's send time these are one NTP-style clock sample per batch,
	// and the batch ID correlates the ack with the shipper's timeline.
	ack := func(resp shipResp) {
		resp.Batch = req.Batch
		resp.RecvUnixNs = recvNs
		resp.AckUnixNs = time.Now().UnixNano()
		writeJSON(w, http.StatusOK, resp)
	}
	if ps, isPrimary := n.localPrimary(id); isPrimary {
		if req.Config.Epoch > ps.cfg.Epoch {
			// The shipper leads a NEWER generation: our own leadership
			// was superseded while we were partitioned away. Step down
			// and wipe — our history may have forked — then fall through
			// to the no-replica path, which rebuilds this member from
			// the winner by snapshot catch-up.
			if err := n.yieldLeadership(id, req.Primary); err != nil {
				httpErr(w, http.StatusInternalServerError, err)
				return
			}
		} else {
			// A stale shipper from a previous (or conflicting) epoch;
			// refuse rather than fork the session. The shipper resolves
			// the conflict via the epoch rule on its side.
			httpErr(w, http.StatusConflict, fmt.Errorf("cluster: %s leads %q; not accepting shipped records", n.cfg.ID, id))
			return
		}
	}
	rep, ok := n.mgr.GetReplica(id)
	if !ok {
		// No local copy at all: bootstrap by snapshot catch-up — fetch
		// the primary's newest snapshot segment (plus committed tail)
		// and install it, instead of making the primary replay and
		// buffer its whole history through the ship stream.
		var err error
		rep, err = n.snapshotCatchup(id, req)
		if err != nil {
			// Catch-up needs the primary reachable; until then the
			// backlog simply stays pending on the shipper.
			ack(shipResp{Acked: 0, Gap: true})
			return
		}
	}
	n.mu.Lock()
	fs, ok := n.followers[id]
	if !ok {
		fs = &followerState{}
		n.followers[id] = fs
	}
	fs.cfg = req.Config
	fs.primary = req.Primary
	if req.Barrier > fs.barrierSeq {
		// First sight of this barrier: start the follower side of the
		// barrier-to-compaction clock.
		fs.barrierSeq = req.Barrier
		fs.barrierAt = time.Now()
	}
	n.mu.Unlock()

	acked, err := rep.Offer(req.From, evs)
	if errors.Is(err, serve.ErrReplicaGap) {
		// The batch starts beyond our log — the primary compacted past
		// our acknowledged offset (or our copy predates its retained
		// history). Catch up by snapshot transfer, then fold the batch
		// in (sequence-number dedup skips what the snapshot covered).
		rep, err = n.snapshotCatchup(id, req)
		if err != nil {
			ack(shipResp{Acked: acked, Gap: true})
			return
		}
		acked, err = rep.Offer(req.From, evs)
	}
	switch {
	case errors.Is(err, serve.ErrReplicaGap):
		ack(shipResp{Acked: acked, Gap: true})
	case err != nil:
		httpErr(w, http.StatusInternalServerError, err)
	default:
		if req.Barrier > 0 {
			// Honor the primary's compaction barrier once we are past
			// it (CompactBarrier dedups re-sends internally).
			if err := rep.CompactBarrier(req.Barrier); err != nil {
				httpErr(w, http.StatusInternalServerError, err)
				return
			}
			if acked >= req.Barrier {
				// The barrier is behind us, so the compaction above (or a
				// previous one) has honored it: close the follower side of
				// the barrier-to-compaction clock, once per barrier.
				n.mu.Lock()
				var at time.Time
				if fs.barrierDone < req.Barrier {
					fs.barrierDone = req.Barrier
					at = fs.barrierAt
				}
				n.mu.Unlock()
				if !at.IsZero() {
					n.obs.barrierFollower.ObserveSince(at)
				}
			}
		}
		ack(shipResp{Acked: acked})
	}
}

// snapshotCatchup fetches the shipping primary's newest snapshot
// segment (snapshot record + committed event tail, one stream) and
// installs it atomically as this member's replica of the session,
// verifying the installed sequence number against the primary's
// header. This is how a late-joining or far-behind follower skips
// full-log replay.
func (n *Node) snapshotCatchup(id string, req shipReq) (*serve.Replica, error) {
	addr, ok := n.addrOf(req.Primary)
	if !ok {
		return nil, fmt.Errorf("cluster: no address for primary %s of %q", req.Primary, id)
	}
	resp, err := n.client.Get("http://" + addr + "/cluster/snapshot/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: snapshot fetch of %q from %s: %s", id, req.Primary, resp.Status)
	}
	wantSeq, err := strconv.Atoi(resp.Header.Get("X-Snapshot-Seq"))
	if err != nil {
		return nil, fmt.Errorf("cluster: snapshot fetch of %q: bad X-Snapshot-Seq: %w", id, err)
	}
	// Stream the body straight into the install: the transfer is
	// chunked (no Content-Length), so a connection cut short surfaces
	// as a copy error inside the install's temp directory — before any
	// rename touches the real log — and memory stays O(1) regardless
	// of snapshot size. The seq check below catches a transfer that
	// raced the primary's own log state.
	cr := &countingReader{r: resp.Body}
	rep, err := n.mgr.InstallReplica(id, req.Config.serveConfig(), cr)
	if err != nil {
		return nil, err
	}
	count, bytes := n.obs.forCatchup(id)
	count.Inc()
	bytes.Add(cr.n)
	n.obs.log.Info("snapshot catch-up installed", "component", "cluster", "member", string(n.cfg.ID), "session", id, "from", string(req.Primary), "bytes", strconv.FormatInt(cr.n, 10))
	if got := rep.Seq(); got != wantSeq {
		n.mgr.CloseReplica(id)
		return nil, fmt.Errorf("cluster: snapshot install of %q recovered seq %d, primary announced %d", id, got, wantSeq)
	}
	if err := n.persistSessionConfig(id, req.Config); err != nil {
		// The sidecar is what lets a RESTARTED member re-register this
		// replica (Node.Recover): a registered replica without it would
		// silently vanish from the promotion candidates on reboot. Keep
		// the invariant "registered ⇒ persisted" by unwinding the
		// install; the next ship round redoes the catch-up.
		n.mgr.CloseReplica(id)
		return nil, err
	}
	return rep, nil
}

// countingReader counts the bytes pulled through it — the catch-up
// transfer-size metric's tap.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handleSnapshot streams a led session's newest snapshot and committed
// tail — the catch-up transfer a behind follower installs in place of
// replaying the full log. The X-Snapshot-Seq header announces the
// sequence number the stream reconstructs; the fetcher verifies it
// after installing, so a stream cut short (or raced by a concurrent
// truncation) is detected, never silently adopted.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, leads := n.localPrimary(id); !leads {
		httpErr(w, http.StatusConflict, fmt.Errorf("cluster: %s does not lead %q", n.cfg.ID, id))
		return
	}
	// Publish everything accepted so far to the log, then plan the
	// committed byte ranges to stream. During a handoff the session is
	// closed (writes frozen, WAL flushed and final) but this member
	// still leads it — the adoptee's bootstrap fetch must be served
	// from the closed log.
	if s, ok := n.mgr.Get(id); ok {
		if err := s.Barrier(); err != nil {
			httpErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	plan, err := serve.PlanSnapshotTail(n.walDir(id))
	if err != nil {
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-wal")
	w.Header().Set("X-Snapshot-Seq", strconv.Itoa(plan.Seq))
	w.WriteHeader(http.StatusOK)
	for _, tf := range plan.Files {
		f, err := os.Open(tf.Path)
		if err != nil {
			return // mid-stream abort; the fetcher sees a truncated body
		}
		_, err = io.CopyN(w, f, tf.Committed)
		f.Close()
		if err != nil {
			return
		}
	}
}

func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req adoptReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	// The adopt request carries the authoritative session config
	// (leadership epoch included); make sure the follower state
	// promote() reads agrees with it even if the ship requests that
	// populated it are stale.
	n.mu.Lock()
	if fs, ok := n.followers[id]; ok {
		fs.cfg = req.Config
		fs.primary = req.From
	} else {
		n.followers[id] = &followerState{cfg: req.Config, primary: req.From}
	}
	n.mu.Unlock()
	if err := n.promote(id); err != nil {
		if errors.Is(err, serve.ErrNoReplica) {
			httpErr(w, http.StatusNotFound, err)
			return
		}
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	s, ok := n.mgr.Get(id)
	if !ok {
		httpErr(w, http.StatusInternalServerError, fmt.Errorf("cluster: promoted %q vanished", id))
		return
	}
	writeJSON(w, http.StatusOK, adoptResp{Seq: s.View().Seq()})
}

// handleHolds reports whether this member serves or replicates a
// session — the probe Reconcile's promotion fallback and orphan
// decommission use to learn where a session's data lives.
func (n *Node) handleHolds(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s, hasSession := n.mgr.Get(id)
	rep, hasReplica := n.mgr.GetReplica(id)
	out := map[string]interface{}{"session": hasSession, "replica": hasReplica}
	if hasReplica {
		out["seq"] = rep.Seq()
	}
	if hasSession {
		// Leaders answer with their applied seq and leadership epoch —
		// the inputs of the dual-primary resolution rule.
		out["seq"] = s.View().Seq()
	}
	if ps, leads := n.localPrimary(id); leads {
		out["epoch"] = ps.cfg.Epoch
	}
	writeJSON(w, http.StatusOK, out)
}

// localPrimary reports whether this member currently leads the session.
func (n *Node) localPrimary(id string) (*primaryState, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps, ok := n.primaries[id]
	return ps, ok
}

// readWait parses a request's staleness bound: the minimum applied
// sequence the response must reflect (?min_seq=, 0 when absent) and how
// long to wait for it (?wait_ms=, defaulted and capped).
func readWait(r *http.Request) (minSeq int, budget time.Duration) {
	minSeq, _ = strconv.Atoi(r.URL.Query().Get("min_seq"))
	budget = defaultReadWait
	if ms, err := strconv.Atoi(r.URL.Query().Get("wait_ms")); err == nil && ms >= 0 {
		budget = time.Duration(ms) * time.Millisecond
		if budget > maxReadWait {
			budget = maxReadWait
		}
	}
	return minSeq, budget
}

// readSubresource maps a /v1/sessions/{id}[/sub] GET to the view-level
// read it names, or false for paths a follower may not serve (event
// posts, watch streams, deletes).
func readSubresource(r *http.Request, id string) (string, bool) {
	if r.Method != http.MethodGet {
		return "", false
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/"+id)
	rest = strings.TrimPrefix(rest, "/")
	switch rest {
	case "", "assignment", "conflicts", "metrics":
		return rest, true
	}
	return "", false
}

// routeV1 is the member's /v1 dispatch: locally led sessions are served
// live (honoring min_seq against the primary's view), reads of sessions
// this member follows are served from the replica's warm view, and
// everything else is redirected to the rendezvous primary — or answered
// 503-retryable while a failover is in flight, never "gone".
func (n *Node) routeV1(v1 http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sessionIDFromPath(r.URL.Path)
		if id == "" {
			v1.ServeHTTP(w, r)
			return
		}
		if s, ok := n.mgr.Get(id); ok {
			if r.Method != http.MethodGet && n.cfg.RequireQuorum && !n.ms.Quorum() {
				// Split-brain write gate: a primary that can no longer
				// see a majority of the cluster is the minority side of a
				// partition. The majority side will promote a replacement
				// and accept writes; anything acked HERE from now on
				// would be wiped when the healed partition's epoch rule
				// runs. Refuse retryably instead — the client's retry
				// lands on the majority via routing.
				retryErr(w, fmt.Errorf("cluster: %s sees no membership quorum; writes refused to prevent split-brain", n.cfg.ID))
				return
			}
			if minSeq, budget := readWait(r); minSeq > 0 {
				if !waitSeq(func() int { return s.View().Seq() }, minSeq, budget) {
					retryErr(w, fmt.Errorf("cluster: min_seq %d not applied (at %d) within wait budget", minSeq, s.View().Seq()))
					return
				}
			}
			v1.ServeHTTP(w, r)
			return
		}
		if sub, readable := readSubresource(r, id); readable {
			if rep, ok := n.mgr.GetReplica(id); ok {
				n.serveFollowerRead(w, r, id, sub, rep)
				return
			}
		}
		ri, ok := n.primaryFor(id)
		if !ok || ri.Primary.ID == n.cfg.ID || ri.Primary.Addr == "" {
			// Either no live members, or placement names this member
			// but it has not (yet) promoted or created the session. A
			// failover in progress is indistinguishable from a session
			// that never existed, so answer retryable, never "gone" —
			// a client that treats 404 as deleted could recreate and
			// overwrite a session about to be promoted from a replica.
			retryErr(w, fmt.Errorf("cluster: session %q not served here (failover in progress or unknown session); retry", id))
			return
		}
		http.Redirect(w, r, "http://"+ri.Primary.Addr+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	})
}

// waitSeq polls a lock-free seq source until it reaches min or the
// budget lapses.
func waitSeq(seq func() int, min int, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	for {
		if seq() >= min {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(readWaitPoll)
	}
}

// serveFollowerRead answers a session read from this member's replica:
// the warm view a follower keeps applying shipped records into. The
// response carries the applied seq (in the body, like every read) plus
// X-Read-From headers naming the serving role; ?min_seq= bounds
// staleness — the read waits for the replica to catch up, and on
// timeout hands the client to the live primary (307) or, when there is
// none to hand to, answers 503-retryable. A replica closed mid-request
// (promotion or decommission racing the read) is also 503-retryable:
// after a failover the client retries and lands on a state at least as
// fresh, never on a frozen stale view.
func (n *Node) serveFollowerRead(w http.ResponseWriter, r *http.Request, id, sub string, rep *serve.Replica) {
	minSeq, budget := readWait(r)
	deadline := time.Now().Add(budget)
	for {
		if !rep.Live() {
			retryErr(w, fmt.Errorf("cluster: replica of %q is being promoted or retired; retry", id))
			return
		}
		v := rep.View()
		if v.Seq() >= minSeq {
			w.Header().Set("X-Read-From", "follower")
			w.Header().Set("X-Member", string(n.cfg.ID))
			switch sub {
			case "":
				serve.RenderStatus(w, id, v)
			case "assignment":
				serve.RenderAssignment(w, r, v)
			case "conflicts":
				serve.RenderConflicts(w, r, v)
			case "metrics":
				serve.RenderMetrics(w, v)
			}
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(readWaitPoll)
	}
	// Still behind min_seq: the primary (if one is alive) holds the
	// freshest state — hand the client over rather than serve stale.
	if ri, ok := n.primaryFor(id); ok && ri.Primary.ID != n.cfg.ID && ri.Primary.Addr != "" {
		http.Redirect(w, r, "http://"+ri.Primary.Addr+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		return
	}
	retryErr(w, fmt.Errorf("cluster: replica of %q at seq %d, min_seq %d not reached within wait budget", id, rep.View().Seq(), minSeq))
}

// sessionIDFromPath extracts {id} from /v1/sessions/{id}[/...], or ""
// for collection-level paths.
func sessionIDFromPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/sessions/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// retryErr answers 503 with a Retry-After hint — the "try again in a
// moment" shape every transient cluster condition (failover window,
// staleness timeout, catch-up in progress) uses.
func retryErr(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	httpErr(w, http.StatusServiceUnavailable, err)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
