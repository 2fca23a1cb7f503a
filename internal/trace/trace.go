// Package trace serializes event scripts (scenarios) to and from JSON so
// that simulations are replayable artifacts: a randomized workload can be
// saved once and re-fed byte-identically to any strategy, across
// machines and Go versions.
//
// The format is a single JSON object with a version tag and a flat event
// list; unknown versions and malformed events are rejected loudly.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// file is the on-disk envelope.
type file struct {
	Version int           `json:"version"`
	Name    string        `json:"name,omitempty"`
	Events  []EventRecord `json:"events"`
}

// EventRecord is the serialized form of one strategy.Event. It is shared
// by script files, the session-service HTTP API, and the NDJSON WAL
// export (cmd/waldump), so every surface speaks the same event
// vocabulary.
type EventRecord struct {
	Kind  string  `json:"kind"` // "join", "leave", "move", "power"
	ID    int     `json:"id"`
	X     float64 `json:"x,omitempty"`
	Y     float64 `json:"y,omitempty"`
	Range float64 `json:"range,omitempty"`
}

// Save writes a named event script to w.
func Save(w io.Writer, name string, events []strategy.Event) error {
	f := file{Version: FormatVersion, Name: name}
	for i, ev := range events {
		ej, err := EncodeEvent(ev)
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		f.Events = append(f.Events, ej)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Load reads an event script from r.
func Load(r io.Reader) (name string, events []strategy.Event, err error) {
	var f file
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return "", nil, fmt.Errorf("trace: %w", err)
	}
	if f.Version != FormatVersion {
		return "", nil, fmt.Errorf("trace: unsupported version %d (want %d)", f.Version, FormatVersion)
	}
	for i, ej := range f.Events {
		ev, err := DecodeEvent(ej)
		if err != nil {
			return "", nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		events = append(events, ev)
	}
	return f.Name, events, nil
}

// EncodeEvent serializes one event into its wire record.
func EncodeEvent(ev strategy.Event) (EventRecord, error) {
	ej := EventRecord{ID: int(ev.ID)}
	switch ev.Kind {
	case strategy.Join:
		ej.Kind = "join"
		ej.X, ej.Y, ej.Range = ev.Cfg.Pos.X, ev.Cfg.Pos.Y, ev.Cfg.Range
	case strategy.Leave:
		ej.Kind = "leave"
	case strategy.Move:
		ej.Kind = "move"
		ej.X, ej.Y = ev.Pos.X, ev.Pos.Y
	case strategy.PowerChange:
		ej.Kind = "power"
		ej.Range = ev.R
	default:
		return ej, fmt.Errorf("unknown event kind %v", ev.Kind)
	}
	return ej, nil
}

// DecodeEvent parses one wire record back into an event, rejecting
// malformed records loudly.
func DecodeEvent(ej EventRecord) (strategy.Event, error) {
	id := graph.NodeID(ej.ID)
	switch ej.Kind {
	case "join":
		if ej.Range < 0 {
			return strategy.Event{}, fmt.Errorf("join of %d with negative range %g", ej.ID, ej.Range)
		}
		return strategy.JoinEvent(id, adhoc.Config{
			Pos:   geom.Point{X: ej.X, Y: ej.Y},
			Range: ej.Range,
		}), nil
	case "leave":
		return strategy.LeaveEvent(id), nil
	case "move":
		return strategy.MoveEvent(id, geom.Point{X: ej.X, Y: ej.Y}), nil
	case "power":
		if ej.Range < 0 {
			return strategy.Event{}, fmt.Errorf("power of %d with negative range %g", ej.ID, ej.Range)
		}
		return strategy.PowerEvent(id, ej.Range), nil
	default:
		return strategy.Event{}, fmt.Errorf("unknown event kind %q", ej.Kind)
	}
}
