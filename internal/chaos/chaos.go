// Package chaos is the deterministic fault-injection layer: seeded link
// faults for the cluster's HTTP transport (cuts, asymmetric partitions,
// probabilistic loss) and a phase schedule composing the
// engine-level knobs (loss, duplication, reordering) from one seed.
//
// The design splits faults by where nondeterminism is tolerable:
//
//   - Net injects faults into real HTTP traffic between named members.
//     Its MUTATIONS (partition, heal, cut) are deterministic and logged;
//     its per-request loss draws are seeded per link but interleave with
//     goroutine scheduling, so tests assert on mutations and outcomes
//     (convergence, counters > 0), never on individual draws.
//   - Schedule drives the single-threaded dist.Engine, where every draw
//     IS deterministic: the same seed replays the same run bit for bit.
//
// Every fault action appends to an event log (Events, WriteLog) so a
// failing run names the exact seed and fault sequence to replay.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/xrand"
)

// Event is one logged fault action. Step is a logical counter (never
// wall time — logs from two runs of the same seed must compare equal).
type Event struct {
	Step   int    `json:"step"`
	Action string `json:"action"`
	Detail string `json:"detail,omitempty"`
}

// linkKey names one DIRECTED link. Cutting a->b alone is an asymmetric
// partition: a's requests to b fail, b still reaches a.
type linkKey struct{ src, dst string }

// lossRule is a probabilistic per-attempt drop on one link, with its
// own seeded RNG so two links' draws never perturb each other.
type lossRule struct {
	p   float64
	rng *xrand.RNG
}

// Net injects faults into HTTP traffic between named members. Wire it
// by registering each member's address (Register) and handing each
// member a Transport bound to its name; every request then resolves its
// destination by address and consults the link's current rules.
// Unregistered destinations pass through untouched.
type Net struct {
	mu      sync.Mutex
	seed    uint64
	names   map[string]string // addr -> member name
	cut     map[linkKey]bool
	loss    map[linkKey]*lossRule
	dropped map[linkKey]int
	step    int
	log     []Event
}

// NewNet builds a fault controller. The seed feeds every link's loss
// RNG (split per link, so adding a rule never shifts another's draws).
func NewNet(seed uint64) *Net {
	return &Net{
		seed:    seed,
		names:   make(map[string]string),
		cut:     make(map[linkKey]bool),
		loss:    make(map[linkKey]*lossRule),
		dropped: make(map[linkKey]int),
	}
}

// Register maps a member's bound address to its name so transports can
// resolve request destinations. Call after the member's listener binds.
func (c *Net) Register(name, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.names[addr] = name
	// Logged by name only: the bound address is environment (an
	// ephemeral port), not schedule, and two replays of the same seed
	// must produce byte-identical event logs.
	c.note("register", name)
}

// Transport returns an http.RoundTripper for traffic ORIGINATING at
// src. base nil defaults to http.DefaultTransport.
func (c *Net) Transport(src string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{net: c, src: src, base: base}
}

// CutLink severs the directed link src->dst: requests fail before
// leaving src with a transport-level error (the unreachable-peer shape
// cluster code already tolerates). Cut only one direction for an
// asymmetric partition.
func (c *Net) CutLink(src, dst string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut[linkKey{src, dst}] = true
	c.note("cut", src+"->"+dst)
}

// HealLink restores the directed link src->dst (cut and loss rules).
func (c *Net) HealLink(src, dst string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cut, linkKey{src, dst})
	delete(c.loss, linkKey{src, dst})
	c.note("heal-link", src+"->"+dst)
}

// Partition cuts every link BETWEEN the given groups, both directions,
// leaving links within a group intact. Members in no group keep all
// their links. Typical: Partition([]string{"a"}, []string{"b", "c"})
// isolates a from the b/c majority.
func (c *Net) Partition(groups ...[]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	detail := ""
	for gi, g := range groups {
		if gi > 0 {
			detail += " | "
		}
		for mi, m := range g {
			if mi > 0 {
				detail += ","
			}
			detail += m
		}
		for _, h := range groups[gi+1:] {
			for _, a := range g {
				for _, b := range h {
					c.cut[linkKey{a, b}] = true
					c.cut[linkKey{b, a}] = true
				}
			}
		}
	}
	c.note("partition", detail)
}

// Heal clears every fault rule — cuts and loss — on every link.
func (c *Net) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut = make(map[linkKey]bool)
	c.loss = make(map[linkKey]*lossRule)
	c.note("heal", "")
}

// Dropped reports how many requests the controller has rejected on the
// directed link (cuts and loss draws combined) — the "did the fault
// actually fire" assertion tests need.
func (c *Net) Dropped(src, dst string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped[linkKey{src, dst}]
}

// Events snapshots the fault event log.
func (c *Net) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.log))
	copy(out, c.log)
	return out
}

// WriteLog writes the event log as NDJSON — the reproduction artifact
// a failing chaos run uploads.
func (c *Net) WriteLog(w io.Writer) error {
	for _, e := range c.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// note appends a log entry. Callers hold c.mu.
func (c *Net) note(action, detail string) {
	c.step++
	c.log = append(c.log, Event{Step: c.step, Action: action, Detail: detail})
}

// LinkError is the transport-level failure an injected fault surfaces
// as. It reaches callers wrapped in *url.Error, exactly like a real
// connection failure, so the cluster's "transport error = unreachable
// peer" semantics hold unchanged.
type LinkError struct {
	Src, Dst string
	Reason   string // "cut", "loss", "response-cut"
}

func (e *LinkError) Error() string {
	return fmt.Sprintf("chaos: link %s->%s %s", e.Src, e.Dst, e.Reason)
}

// transport is one member's fault-injecting RoundTripper.
type transport struct {
	net  *Net
	src  string
	base http.RoundTripper
}

// RoundTrip consults the link rules for src->dst (dst resolved from the
// request host). A forward cut or loss draw fails before the request is
// sent; a REVERSE cut (dst->src severed) lets the request through and
// discards the response — the server processed it, the client never
// learns, which is the at-most-once ambiguity an asymmetric partition
// really produces.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := t.net
	c.mu.Lock()
	dst, known := c.names[req.URL.Host]
	if !known {
		c.mu.Unlock()
		return t.base.RoundTrip(req)
	}
	fwd := linkKey{t.src, dst}
	rev := linkKey{dst, t.src}
	if c.cut[fwd] {
		c.dropped[fwd]++
		c.mu.Unlock()
		return nil, &LinkError{Src: t.src, Dst: dst, Reason: "cut"}
	}
	if lr := c.loss[fwd]; lr != nil && lr.rng.Float64() < lr.p {
		c.dropped[fwd]++
		c.mu.Unlock()
		return nil, &LinkError{Src: t.src, Dst: dst, Reason: "loss"}
	}
	revCut := c.cut[rev]
	c.mu.Unlock()

	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if revCut {
		// The request reached dst and was served; the response dies on
		// the return path.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		c.mu.Lock()
		c.dropped[rev]++
		c.mu.Unlock()
		return nil, &LinkError{Src: t.src, Dst: dst, Reason: "response-cut"}
	}
	return resp, nil
}
