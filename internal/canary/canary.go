// Package canary probes the serving contract from the outside: a
// synthetic session driven through the same public HTTP API real
// clients hit — write, read-your-write with min_seq, follower read,
// watch — publishing what it measures as first-class SLIs. White-box
// metrics describe what a process believes it is doing; the canary
// measures what a client actually gets, which is the only vantage that
// catches a wedged listener, a broken route, or a failover blackout
// end to end.
//
// The prober runs off every hot path: it is an ordinary HTTP client
// with its own goroutine, attached to a registry only to publish its
// SLIs.
package canary

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// BlackoutBuckets grade failover blackout durations: from "a blip" to
// "page somebody" (seconds).
var BlackoutBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Config parameterizes a prober.
type Config struct {
	// Target is the base URL of any member (or the standalone daemon):
	// "host:port" or "http://host:port".
	Target string
	// Session is the synthetic session's ID (default "canary-probe").
	// It is a real session — placed, replicated, and failed over like
	// any tenant, which is exactly the point.
	Session string
	// Cluster selects the cluster surface: sessions are created via
	// POST /cluster/sessions and the read leg asks /cluster/route
	// ?read=1 for a (round-robin, possibly follower) read target. Off,
	// the prober speaks the standalone /v1 surface only.
	Cluster bool
	// Interval paces Run's probe cycles (default 1s).
	Interval time.Duration
	// Timeout bounds each probe HTTP call (default 3s); the watch leg
	// waits at most Timeout for its delta too.
	Timeout time.Duration
	// Nodes caps the synthetic network's size (default 16): the canary
	// joins until the cap, then moves — constant state, bounded cost.
	Nodes int
	// Registry receives the canary_ SLI families (nil: probe silently).
	Registry *obs.Registry
	// Transport, when set, is the base RoundTripper under both probe
	// clients — the seam the chaos fault injector (internal/chaos)
	// threads through so tests can cut the canary's OWN links and watch
	// the availability SLIs dip. nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Log receives probe failures at warn level (nil: quiet).
	Log *slog.Logger
}

// Prober drives one synthetic session. Not safe for concurrent
// ProbeOnce calls; Run serializes them.
type Prober struct {
	cfg    Config
	base   string
	client *http.Client
	// watchClient has no global timeout — the watch leg streams; its
	// deadline comes from a per-request context.
	watchClient *http.Client

	probeOK, probeErr *obs.Counter
	opErrs            map[string]*obs.Counter
	writeAck          *obs.Histogram
	readStaleness     *obs.Histogram
	watchDelivery     *obs.Histogram
	blackout          *obs.Histogram
	blackouts         *obs.Counter
	lastBlackout      *obs.FloatGauge

	created     bool
	seq         int
	nextID      int
	outageStart time.Time
}

// New builds a prober (no I/O yet).
func New(cfg Config) *Prober {
	if cfg.Session == "" {
		cfg.Session = "canary-probe"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * time.Second
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 16
	}
	base := cfg.Target
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	p := &Prober{
		cfg:         cfg,
		base:        base,
		client:      &http.Client{Timeout: cfg.Timeout, Transport: cfg.Transport},
		watchClient: &http.Client{Transport: cfg.Transport},
	}
	reg := cfg.Registry
	lbl := []string{"session", cfg.Session}
	p.probeOK = reg.Counter("canary_probe_total", "canary probe cycles by result", append(lbl, "result", "ok")...)
	p.probeErr = reg.Counter("canary_probe_total", "canary probe cycles by result", append(lbl, "result", "error")...)
	p.opErrs = map[string]*obs.Counter{}
	for _, op := range []string{"create", "write", "read", "watch"} {
		p.opErrs[op] = reg.Counter("canary_op_errors_total", "canary probe leg failures by op", append(lbl, "op", op)...)
	}
	p.writeAck = reg.Histogram("canary_write_ack_seconds", "synthetic write submit to 200 ack", nil, lbl...)
	p.readStaleness = reg.Histogram("canary_read_staleness_seconds", "read-your-write with min_seq: submit to a fresh 200 (follower-served in cluster mode)", nil, lbl...)
	p.watchDelivery = reg.Histogram("canary_watch_delivery_seconds", "write ack to the watch stream delivering that event", nil, lbl...)
	p.blackout = reg.Histogram("canary_failover_blackout_seconds", "duration of write-unavailability windows as a client saw them", BlackoutBuckets, lbl...)
	p.blackouts = reg.Counter("canary_blackouts_total", "write-unavailability windows closed by a successful write", lbl...)
	p.lastBlackout = reg.FloatGauge("canary_last_blackout_seconds", "duration of the most recent write-unavailability window", lbl...)
	return p
}

// Run probes every Interval until done closes.
func (p *Prober) Run(done <-chan struct{}) {
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if err := p.ProbeOnce(); err != nil && p.cfg.Log != nil {
				p.cfg.Log.Warn("canary probe failed", "component", "canary", "session", p.cfg.Session, "err", err.Error())
			}
		}
	}
}

// ProbeOnce runs one full synthetic cycle: ensure the session exists,
// subscribe a watch, write one event (write-ack SLI, blackout
// bookkeeping), wait for the watch delta (delivery SLI), then read the
// write back under min_seq from a routed read target (staleness SLI).
// Leg failures are folded into one error; the cycle counts as ok only
// when every leg passed.
func (p *Prober) ProbeOnce() error {
	var errs []error
	fail := func(op string, err error) {
		p.opErrs[op].Inc()
		errs = append(errs, fmt.Errorf("%s: %w", op, err))
	}

	if err := p.ensureSession(); err != nil {
		fail("create", err)
		p.probeErr.Inc()
		return errors.Join(errs...)
	}

	// Subscribe before writing so the delta cannot be missed.
	watch, werr := p.openWatch()
	if werr != nil {
		fail("watch", werr)
	}

	ackAt, err := p.writeEvent()
	if err != nil {
		fail("write", err)
		if watch != nil {
			watch.close()
		}
		p.probeErr.Inc()
		return errors.Join(errs...)
	}

	if watch != nil {
		if err := watch.awaitSeq(p.seq); err != nil {
			fail("watch", err)
		} else {
			p.watchDelivery.Observe(time.Since(ackAt).Seconds())
		}
		watch.close()
	}

	if err := p.readYourWrite(ackAt); err != nil {
		fail("read", err)
	}

	if len(errs) > 0 {
		p.probeErr.Inc()
		return errors.Join(errs...)
	}
	p.probeOK.Inc()
	return nil
}

// ensureSession creates the synthetic session once; an already-exists
// answer from a previous run (or the replicated survivor of a
// failover) is success.
func (p *Prober) ensureSession() error {
	if p.created {
		return nil
	}
	var (
		url  string
		body interface{}
	)
	if p.cfg.Cluster {
		url = p.base + "/cluster/sessions"
		body = map[string]interface{}{
			"id": p.cfg.Session,
			"config": map[string]interface{}{
				"strategies":    []string{"Minim"},
				"sync_every":    1,
				"compact_every": 4096,
			},
		}
	} else {
		url = p.base + "/v1/sessions"
		body = map[string]interface{}{
			"id":         p.cfg.Session,
			"strategies": []string{"Minim"},
			"sync_every": 1,
		}
	}
	buf, _ := json.Marshal(body)
	resp, err := p.client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusConflict:
		p.created = true
		return nil
	}
	return fmt.Errorf("create %s: %s", p.cfg.Session, resp.Status)
}

// writeEvent submits one synthetic event and records the write-ack SLI
// and blackout bookkeeping. On success p.seq is the acked sequence.
func (p *Prober) writeEvent() (ackAt time.Time, err error) {
	ev := p.nextEvent()
	buf, _ := json.Marshal(map[string]interface{}{"events": []trace.EventRecord{ev}})
	start := time.Now()
	resp, err := p.client.Post(p.base+"/v1/sessions/"+p.cfg.Session+"/events", "application/json", bytes.NewReader(buf))
	if err != nil {
		p.noteWrite(false, time.Now())
		return time.Time{}, err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		// A standalone restart lost the in-memory session; recreate on
		// the next cycle.
		p.created = false
	}
	if resp.StatusCode != http.StatusOK {
		p.noteWrite(false, time.Now())
		return time.Time{}, fmt.Errorf("write: %s", resp.Status)
	}
	var ack struct {
		Applied int `json:"applied"`
		Seq     int `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		p.noteWrite(false, time.Now())
		return time.Time{}, fmt.Errorf("write ack: %w", err)
	}
	now := time.Now()
	p.writeAck.Observe(now.Sub(start).Seconds())
	p.noteWrite(true, now)
	if ack.Seq > p.seq {
		p.seq = ack.Seq
	}
	return now, nil
}

// noteWrite tracks write-unavailability windows: the clock starts at
// the first failed write and the window closes (and is published) at
// the next success — the blackout a real client would have seen.
func (p *Prober) noteWrite(ok bool, now time.Time) {
	if !ok {
		if p.outageStart.IsZero() {
			p.outageStart = now
		}
		return
	}
	if p.outageStart.IsZero() {
		return
	}
	d := now.Sub(p.outageStart).Seconds()
	if d < 0 {
		// A wall-clock step between the failure and the healing write
		// must never publish a negative window.
		d = 0
	}
	p.blackout.Observe(d)
	p.blackouts.Inc()
	p.lastBlackout.Set(d)
	p.outageStart = time.Time{}
}

// readYourWrite reads the session back demanding min_seq = the acked
// write. In cluster mode the target comes from /cluster/route?read=1 —
// round-robin over the owner set, so followers serve their share and
// the bounded-staleness contract is probed where it is weakest.
func (p *Prober) readYourWrite(ackAt time.Time) error {
	target := p.base
	if p.cfg.Cluster {
		addr, err := p.readTarget()
		if err != nil {
			return err
		}
		target = "http://" + addr
	}
	url := fmt.Sprintf("%s/v1/sessions/%s?min_seq=%d", target, p.cfg.Session, p.seq)
	resp, err := p.client.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("read: %s", resp.Status)
	}
	var status struct {
		Seq int `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return fmt.Errorf("read status: %w", err)
	}
	if status.Seq < p.seq {
		return fmt.Errorf("read-your-write violated: wrote seq %d, read seq %d", p.seq, status.Seq)
	}
	p.readStaleness.Observe(time.Since(ackAt).Seconds())
	return nil
}

// readTarget asks the cluster for a read-serving member.
func (p *Prober) readTarget() (string, error) {
	resp, err := p.client.Get(p.base + "/cluster/route?session=" + p.cfg.Session + "&read=1")
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("route: %s", resp.Status)
	}
	var ri struct {
		Read *struct {
			Addr string `json:"addr"`
		} `json:"read"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
		return "", fmt.Errorf("route: %w", err)
	}
	if ri.Read == nil || ri.Read.Addr == "" {
		return "", errors.New("route named no read target")
	}
	return ri.Read.Addr, nil
}

// nextEvent grows the synthetic network to the cap, then moves nodes
// in a fixed orbit — bounded state, deterministic cost, no randomness.
func (p *Prober) nextEvent() trace.EventRecord {
	id := p.nextID % p.cfg.Nodes
	x := float64(5 + 10*(id%4))
	y := float64(5 + 10*(id/4%4))
	p.nextID++
	if p.nextID <= p.cfg.Nodes {
		return trace.EventRecord{Kind: "join", ID: id, X: x, Y: y, Range: 30}
	}
	// Orbit: nudge the node between two positions so every move is a
	// real state change.
	if (p.nextID/p.cfg.Nodes)%2 == 0 {
		x += 3
	}
	return trace.EventRecord{Kind: "move", ID: id, X: x, Y: y}
}

// watchStream is one open watch subscription.
type watchStream struct {
	resp   *http.Response
	rd     *bufio.Reader
	cancel context.CancelFunc
}

// openWatch subscribes to the session's delta stream (redirects to the
// primary are followed — GET replays are safe).
func (p *Prober) openWatch() (*watchStream, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/sessions/"+p.cfg.Session+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := p.watchClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		drain(resp)
		cancel()
		return nil, fmt.Errorf("watch: %s", resp.Status)
	}
	return &watchStream{resp: resp, rd: bufio.NewReader(resp.Body), cancel: cancel}, nil
}

// awaitSeq reads NDJSON deltas until one at or past seq arrives (the
// stream's context deadline bounds the wait).
func (w *watchStream) awaitSeq(seq int) error {
	for {
		line, err := w.rd.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("watch stream: %w", err)
		}
		var d struct {
			Seq int `json:"seq"`
		}
		if err := json.Unmarshal(line, &d); err != nil {
			return fmt.Errorf("watch delta: %w", err)
		}
		if d.Seq >= seq {
			return nil
		}
	}
}

func (w *watchStream) close() {
	w.cancel()
	io.Copy(io.Discard, io.LimitReader(w.resp.Body, 4096))
	w.resp.Body.Close()
}

// drain discards and closes a response body so the transport's
// connection is reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
