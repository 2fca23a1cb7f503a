package serve

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
)

// shipAll tails the primary's WAL from pos and offers everything new to
// the replica, returning the advanced position and the replica's acked
// offset. seq tracks the sequence number of the last record previously
// shipped (snapshot records reset it to their Seq).
func shipAll(t *testing.T, walDir string, pos WALPos, seq int, r *Replica) (WALPos, int, int) {
	t.Helper()
	recs, next, err := TailWAL(walDir, pos)
	if err != nil {
		t.Fatal(err)
	}
	var evs []strategy.Event
	from := seq + 1
	for _, rec := range recs {
		if rec.Snap != nil {
			if len(evs) > 0 {
				t.Fatal("snapshot after events in a replicated log")
			}
			seq = rec.Snap.Seq
			from = seq + 1
			continue
		}
		seq++
		evs = append(evs, *rec.Ev)
	}
	acked, err := r.Offer(from, evs)
	if err != nil {
		t.Fatal(err)
	}
	return next, seq, acked
}

// TestReplicaShipAndPromote: a primary session's WAL is tailed and
// shipped into a follower replica in batches; after a simulated primary
// crash the promoted replica is bit-identical (assignments, digraphs,
// metrics incl. RecodingsByKind) to the primary's state at the last
// acknowledged offset, and keeps accepting the rest of the script to
// finish identical to an uncrashed run.
func TestReplicaShipAndPromote(t *testing.T) {
	base, phase := testScript(43, 40, 120)
	script := append(append([]strategy.Event(nil), base...), phase...)

	primDir := t.TempDir()
	primMgr := NewManager(primDir)
	cfg := Config{Strategies: allNames, SyncEvery: 1, CompactEvery: -1, SegmentBytes: 2048}
	s, err := primMgr.Create("repl", cfg)
	if err != nil {
		t.Fatal(err)
	}

	follMgr := NewManager(t.TempDir())
	walDir := filepath.Join(primDir, "repl.wal")

	// Bootstrap the follower from the primary's snapshot record.
	recs, pos, err := TailWAL(walDir, WALPos{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Snap == nil {
		t.Fatal("primary WAL does not start with a snapshot")
	}
	r, err := follMgr.NewReplica("repl", cfg, *recs[0].Snap)
	if err != nil {
		t.Fatal(err)
	}

	// Apply in chunks, shipping after each chunk — then a final chunk
	// the shipper never sees (the unacked tail a failover loses).
	k := len(base) + 40
	seq := 0
	for i := 0; i < k; i += 25 {
		end := min(i+25, k)
		for _, ev := range script[i:end] {
			if err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Barrier(); err != nil { // publishes the WAL bytes
			t.Fatal(err)
		}
		var acked int
		pos, seq, acked = shipAll(t, walDir, pos, seq, r)
		if acked != end {
			t.Fatalf("after chunk to %d: acked %d", end, acked)
		}
	}
	for _, ev := range script[k : k+15] {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the primary: the 15 unshipped events are lost to the
	// follower, whose acked offset stays k.
	if err := s.abortForTest(); err != nil {
		t.Fatal(err)
	}
	if got := r.Seq(); got != k {
		t.Fatalf("replica acked %d, want %d", got, k)
	}

	// The replica's warm views already serve the shipped prefix.
	_, _, ref := refState(t, allNames, script[:k])
	v := r.View()
	for _, name := range allNames {
		rs, _ := ref.StrategyOf(sim.StrategyName(name))
		got, _ := v.Assignment(name)
		if !reflect.DeepEqual(got, rs.Assignment()) {
			t.Fatalf("replica view %s assignment differs at acked offset", name)
		}
	}

	// Promote: the crash-recovery path over the replica's own WAL.
	p, err := follMgr.Promote("repl")
	if err != nil {
		t.Fatal(err)
	}
	assertStateEquals(t, "promoted", p, allNames, ref, k)

	// Continue from the acked offset and finish identical to an
	// uncrashed run of the full script.
	for _, ev := range script[k:] {
		if err := p.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	_, _, full := refState(t, allNames, script)
	assertStateEquals(t, "continued", p, allNames, full, len(script))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaOfferDedupAndGap: duplicate batches (shipper retries) are
// idempotent, and a batch past the replica's next sequence is rejected
// with ErrReplicaGap without mutating state.
func TestReplicaOfferDedupAndGap(t *testing.T) {
	base, _ := testScript(53, 12, 0)
	primDir := t.TempDir()
	primMgr := NewManager(primDir)
	cfg := Config{Strategies: []string{"Minim"}, SyncEvery: 1, CompactEvery: -1}
	s, err := primMgr.Create("dedup", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range base {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	follMgr := NewManager(t.TempDir())
	recs, _, err := TailWAL(filepath.Join(primDir, "dedup.wal"), WALPos{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := follMgr.NewReplica("dedup", cfg, *recs[0].Snap)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]strategy.Event, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		evs = append(evs, *rec.Ev)
	}
	if acked, err := r.Offer(1, evs[:8]); err != nil || acked != 8 {
		t.Fatalf("first offer: acked %d err %v", acked, err)
	}
	// Overlapping retry: already-applied events are skipped.
	if acked, err := r.Offer(1, evs); err != nil || acked != len(evs) {
		t.Fatalf("overlapping offer: acked %d err %v", acked, err)
	}
	// Re-offering a fully-applied batch is a no-op.
	if acked, err := r.Offer(5, evs[4:]); err != nil || acked != len(evs) {
		t.Fatalf("duplicate offer: acked %d err %v", acked, err)
	}
	// A gap is rejected loudly.
	if _, err := r.Offer(len(evs)+5, evs); err == nil {
		t.Fatal("gap accepted")
	}
	var got, ref toca.Assignment
	if err := r.InspectState(func(_ *adhoc.Network, assigns []toca.Assignment, _ []*strategy.Metrics) {
		got = assigns[0].Clone()
	}); err != nil {
		t.Fatal(err)
	}
	refAssigns, _, _ := refState(t, []string{"Minim"}, base)
	ref = refAssigns["Minim"]
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("replica assignment diverged after dedup/gap probes")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := follMgr.CloseReplica("dedup"); err != nil {
		t.Fatal(err)
	}
}

// NewReplica creates a follower replica of session id seeded from a
// shipped snapshot — the first record of the primary's WAL. Any
// existing local log for the ID is truncated. The replica's WAL starts
// with exactly that snapshot, so its durable state mirrors the
// primary's log shipped so far.
func (m *Manager) NewReplica(id string, cfg Config, snap trace.Snapshot) (*Replica, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if m.dir == "" {
		return nil, fmt.Errorf("serve: manager has no WAL directory for replica %q", id)
	}
	cfg = replicaConfig(cfg)
	cfg.metrics = m.mx
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; ok {
		return nil, ErrSessionExists
	}
	if _, ok := m.replicas[id]; ok {
		return nil, ErrReplicaExists
	}
	path, err := m.walPath(id)
	if err != nil {
		return nil, err
	}
	w, err := createWAL(path, snap)
	if err != nil {
		return nil, err
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	// Re-open through the shared recovery core so the replica's backend
	// is built by the exact code path a promotion will later re-run.
	s, err := buildSession(id, cfg, path)
	if err != nil {
		return nil, err
	}
	s.markFollower()
	r := &Replica{s: s, path: path}
	m.replicas[id] = r
	return r, nil
}
