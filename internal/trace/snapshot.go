// Snapshot records: the versioned point-in-time state a durable WAL
// compacts its event prefix into. A snapshot captures everything a
// session needs to resume — the network configuration of every node and
// each hosted strategy's code assignment plus cumulative metrics — so
// that "snapshot + event tail" reconstructs the exact pre-crash state.
//
// The WAL itself is a sequence of self-delimiting binary frames
// (binary.go), where the first record is a snapshot and every following
// record one event. A record is committed iff its bytes are complete
// and parse; a truncated final record is a torn append (the writer died
// mid-write) and is ignored by ReadRecords, while malformed *complete*
// bytes are corruption and are rejected loudly.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
)

// SnapshotVersion identifies the on-disk snapshot schema. Bump it when
// the record shape changes; readers reject versions they do not know.
const SnapshotVersion = 1

// NodeState is one node's network configuration in a snapshot.
type NodeState struct {
	ID    int     `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Range float64 `json:"range"`
}

// ColorEntry is one node's code in a strategy's assignment.
type ColorEntry struct {
	ID    int `json:"id"`
	Color int `json:"color"`
}

// MetricsState is the serialized form of strategy.Metrics.
type MetricsState struct {
	Events          int            `json:"events"`
	TotalRecodings  int            `json:"total_recodings"`
	MaxColor        int            `json:"max_color"`
	PeakMaxColor    int            `json:"peak_max_color"`
	RecodingsByKind map[string]int `json:"recodings_by_kind,omitempty"`
}

// StrategyState is one hosted strategy's snapshot: its assignment and
// cumulative metrics, both sorted deterministically.
type StrategyState struct {
	Name    string       `json:"name"`
	Assign  []ColorEntry `json:"assign"`
	Metrics MetricsState `json:"metrics"`
}

// Snapshot is a versioned point-in-time state record: the event-log
// position it corresponds to, the full network topology, and every
// hosted strategy's state.
type Snapshot struct {
	Version    int             `json:"version"`
	Seq        int             `json:"seq"`
	Nodes      []NodeState     `json:"nodes"`
	Strategies []StrategyState `json:"strategies"`
}

// CaptureSnapshot builds a snapshot of a network and the given
// strategies' states at event-log position seq. Nodes and assignments
// are sorted by ID so identical states produce identical bytes.
func CaptureSnapshot(seq int, net *adhoc.Network, names []string, assigns []toca.Assignment, metrics []*strategy.Metrics) (Snapshot, error) {
	if len(names) != len(assigns) || len(names) != len(metrics) {
		return Snapshot{}, fmt.Errorf("trace: snapshot with %d names, %d assignments, %d metrics", len(names), len(assigns), len(metrics))
	}
	s := Snapshot{Version: SnapshotVersion, Seq: seq}
	for _, id := range net.Nodes() {
		cfg, _ := net.Config(id)
		s.Nodes = append(s.Nodes, NodeState{ID: int(id), X: cfg.Pos.X, Y: cfg.Pos.Y, Range: cfg.Range})
	}
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].ID < s.Nodes[j].ID })
	for i, name := range names {
		ss := StrategyState{Name: name}
		for id, c := range assigns[i] {
			if c == toca.None {
				continue
			}
			ss.Assign = append(ss.Assign, ColorEntry{ID: int(id), Color: int(c)})
		}
		sort.Slice(ss.Assign, func(a, b int) bool { return ss.Assign[a].ID < ss.Assign[b].ID })
		if m := metrics[i]; m != nil {
			ss.Metrics = MetricsState{
				Events:         m.Events,
				TotalRecodings: m.TotalRecodings,
				MaxColor:       int(m.MaxColor),
				PeakMaxColor:   int(m.PeakMaxColor),
			}
			if len(m.RecodingsByKind) > 0 {
				ss.Metrics.RecodingsByKind = make(map[string]int, len(m.RecodingsByKind))
				for k, n := range m.RecodingsByKind {
					ss.Metrics.RecodingsByKind[k.String()] = n
				}
			}
		}
		s.Strategies = append(s.Strategies, ss)
	}
	return s, nil
}

// Configs returns the snapshot's topology as per-node configurations,
// sorted by ID.
func (s Snapshot) Configs() ([]graph.NodeID, []adhoc.Config) {
	ids := make([]graph.NodeID, 0, len(s.Nodes))
	cfgs := make([]adhoc.Config, 0, len(s.Nodes))
	for _, ns := range s.Nodes {
		ids = append(ids, graph.NodeID(ns.ID))
		cfgs = append(cfgs, adhoc.Config{Pos: geom.Point{X: ns.X, Y: ns.Y}, Range: ns.Range})
	}
	return ids, cfgs
}

// Assignment materializes one strategy's snapshot assignment.
func (ss StrategyState) Assignment() toca.Assignment {
	a := make(toca.Assignment, len(ss.Assign))
	for _, e := range ss.Assign {
		a[graph.NodeID(e.ID)] = toca.Color(e.Color)
	}
	return a
}

// RestoreMetrics materializes one strategy's snapshot metrics.
func (ss StrategyState) RestoreMetrics() (*strategy.Metrics, error) {
	m := strategy.NewMetrics()
	m.Events = ss.Metrics.Events
	m.TotalRecodings = ss.Metrics.TotalRecodings
	m.MaxColor = toca.Color(ss.Metrics.MaxColor)
	m.PeakMaxColor = toca.Color(ss.Metrics.PeakMaxColor)
	for ks, n := range ss.Metrics.RecodingsByKind {
		var kind strategy.EventKind
		switch ks {
		case "join":
			kind = strategy.Join
		case "leave":
			kind = strategy.Leave
		case "move":
			kind = strategy.Move
		case "power":
			kind = strategy.PowerChange
		default:
			return nil, fmt.Errorf("trace: unknown event kind %q in snapshot metrics", ks)
		}
		m.RecodingsByKind[kind] = n
	}
	return m, nil
}

// validate rejects snapshots a restore could not honor.
func (s Snapshot) validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("trace: unsupported snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	if s.Seq < 0 {
		return fmt.Errorf("trace: snapshot with negative seq %d", s.Seq)
	}
	seen := make(map[int]struct{}, len(s.Nodes))
	for _, ns := range s.Nodes {
		if _, dup := seen[ns.ID]; dup {
			return fmt.Errorf("trace: snapshot repeats node %d", ns.ID)
		}
		seen[ns.ID] = struct{}{}
		if ns.Range < 0 {
			return fmt.Errorf("trace: snapshot node %d with negative range %g", ns.ID, ns.Range)
		}
	}
	for _, ss := range s.Strategies {
		for _, e := range ss.Assign {
			if _, ok := seen[e.ID]; !ok {
				return fmt.Errorf("trace: %s assigns color to node %d absent from topology", ss.Name, e.ID)
			}
			if e.Color <= 0 {
				return fmt.Errorf("trace: %s assigns non-positive color %d to node %d", ss.Name, e.Color, e.ID)
			}
		}
	}
	return nil
}

// Barrier is a compaction-barrier record: a marker a primary appends to
// its WAL (and ships in-stream to its followers) announcing that the
// log's prefix through Seq is about to be compacted into a snapshot.
// Barriers carry no state — they do not advance the event sequence and
// replay ignores them — they only coordinate when both sides of a
// replicated session may truncate sealed segments.
type Barrier struct {
	Seq int `json:"seq"`
}

// Record is one decoded WAL record: exactly one of Snap, Ev, or Barrier
// is set. Seq is the frame header's sequence number. Frame is the
// record's frame bytes, set by readers that opt in
// (RecordScanner.CaptureFrames, ReadRecordsAt).
type Record struct {
	Snap    *Snapshot
	Ev      *strategy.Event
	Barrier *Barrier
	Seq     int
	Frame   []byte
}

// ReadRecordsAt decodes committed records starting at byte offset off
// of a WAL stream, returning them together with the absolute offset
// where the committed prefix ends. It is the offset-addressed read the
// replication shipper tails a live WAL file with: records before off
// were already consumed, a torn tail past the returned offset is simply
// "not yet committed", and the caller re-reads from the returned offset
// once the writer has appended more. Records carry their raw frame in
// Record.Frame so the replication feed ships the exact bytes without
// re-encoding.
func ReadRecordsAt(rs io.ReadSeeker, off int64) ([]Record, int64, error) {
	if _, err := rs.Seek(off, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("trace: seek %d: %w", off, err)
	}
	sc := NewRecordScanner(rs)
	sc.CaptureFrames()
	recs, n, err := scanAll(sc)
	if err != nil {
		return nil, 0, err
	}
	return recs, off + n, nil
}

// ReadRecords decodes a WAL stream. It returns every committed record
// along with the byte offset where the committed prefix ends: a torn
// final record — truncated at any byte — lies past that offset and is
// not a record, so a writer reopening the stream truncates to it before
// appending. Malformed complete bytes are corruption and fail the read.
func ReadRecords(r io.Reader) ([]Record, int64, error) {
	return scanAll(NewRecordScanner(r))
}

func scanAll(sc *RecordScanner) ([]Record, int64, error) {
	var recs []Record
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			return recs, sc.Committed(), nil
		}
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, rec)
	}
}
