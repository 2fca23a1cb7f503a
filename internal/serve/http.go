package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// NewHandler exposes a Manager over HTTP/JSON:
//
//	POST   /v1/sessions                      create a session
//	GET    /v1/sessions                      list sessions
//	GET    /v1/sessions/{id}                 session status
//	DELETE /v1/sessions/{id}                 close a session
//	POST   /v1/sessions/{id}/events          apply events (429 on backpressure)
//	GET    /v1/sessions/{id}/assignment      ?strategy=Minim[&node=3]
//	GET    /v1/sessions/{id}/conflicts       ?node=3
//	GET    /v1/sessions/{id}/metrics         per-strategy metrics
//	GET    /v1/sessions/{id}/watch           JSONL delta stream
//
// Events use the internal/trace wire encoding, so a saved scenario trace
// can be POSTed verbatim.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) { createSession(m, w, r) })
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) { listSessions(m, w) })
	mux.HandleFunc("GET /v1/sessions/{id}", withSession(m, statusSession))
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		switch err := m.Close(r.PathValue("id")); {
		case errors.Is(err, ErrNoSession):
			httpErr(w, http.StatusNotFound, err)
		case err != nil:
			httpErr(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, http.StatusOK, map[string]string{"closed": r.PathValue("id")})
		}
	})
	mux.HandleFunc("POST /v1/sessions/{id}/events", withSession(m, applyEvents))
	mux.HandleFunc("GET /v1/sessions/{id}/assignment", withSession(m, readAssignment))
	mux.HandleFunc("GET /v1/sessions/{id}/conflicts", withSession(m, readConflicts))
	mux.HandleFunc("GET /v1/sessions/{id}/metrics", withSession(m, readMetrics))
	mux.HandleFunc("GET /v1/sessions/{id}/watch", withSession(m, watchSession))
	return mux
}

func withSession(m *Manager, fn func(*Session, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpErr(w, http.StatusNotFound, ErrNoSession)
			return
		}
		fn(s, w, r)
	}
}

// createReq is the session-creation payload.
type createReq struct {
	ID           string   `json:"id"`
	Strategies   []string `json:"strategies,omitempty"`
	Mailbox      int      `json:"mailbox,omitempty"`
	CompactEvery int      `json:"compact_every,omitempty"`
	SyncEvery    int      `json:"sync_every,omitempty"`
	SegmentBytes int      `json:"segment_bytes,omitempty"`
	// Recover opens the session from its WAL instead of starting fresh.
	Recover bool `json:"recover,omitempty"`
}

func createSession(m *Manager, w http.ResponseWriter, r *http.Request) {
	// Unknown fields are rejected, not dropped: a misspelled setting
	// must not silently fall back to its default.
	var req createReq
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	cfg := Config{
		Strategies:   req.Strategies,
		Mailbox:      req.Mailbox,
		CompactEvery: req.CompactEvery,
		SyncEvery:    req.SyncEvery,
		SegmentBytes: req.SegmentBytes,
	}
	var (
		s   *Session
		err error
	)
	if req.Recover {
		s, err = m.Open(req.ID, cfg)
	} else {
		s, err = m.Create(req.ID, cfg)
	}
	switch {
	case errors.Is(err, ErrSessionExists):
		httpErr(w, http.StatusConflict, err)
	case err != nil:
		httpErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusCreated, sessionStatus(s))
	}
}

func listSessions(m *Manager, w http.ResponseWriter) {
	type row struct {
		ID    string `json:"id"`
		Seq   int    `json:"seq"`
		Nodes int    `json:"nodes"`
	}
	rows := []row{}
	for _, id := range m.List() {
		if s, ok := m.Get(id); ok {
			v := s.View()
			rows = append(rows, row{ID: id, Seq: v.Seq(), Nodes: v.NodeCount()})
		}
	}
	writeJSON(w, http.StatusOK, rows)
}

func sessionStatus(s *Session) map[string]interface{} {
	return statusPayload(s.ID(), s.View())
}

func statusPayload(id string, v *View) map[string]interface{} {
	return map[string]interface{}{
		"id":         id,
		"strategies": v.Strategies(),
		"seq":        v.Seq(),
		"nodes":      v.NodeCount(),
	}
}

func statusSession(s *Session, w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sessionStatus(s))
}

// RenderStatus, RenderAssignment, RenderConflicts, and RenderMetrics
// answer the read endpoints from a bare View — the session handlers
// above go through them, and the cluster front end reuses them to serve
// the same read API from a follower replica's warm view (same JSON
// shapes, same seq tagging, no Session required).

// RenderStatus writes the session-status payload for a view.
func RenderStatus(w http.ResponseWriter, id string, v *View) {
	writeJSON(w, http.StatusOK, statusPayload(id, v))
}

// RenderAssignment answers an assignment read (?strategy=, ?node=)
// from a view.
func RenderAssignment(w http.ResponseWriter, r *http.Request, v *View) {
	name := r.URL.Query().Get("strategy")
	if name == "" {
		if names := v.Strategies(); len(names) > 0 {
			name = names[0]
		}
	}
	if nodeQ := r.URL.Query().Get("node"); nodeQ != "" {
		id, err := strconv.Atoi(nodeQ)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		c, ok := v.ColorOf(name, graph.NodeID(id))
		if _, hosted := v.MetricsOf(name); !hosted {
			httpErr(w, http.StatusNotFound, fmt.Errorf("strategy %q not hosted", name))
			return
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"seq": v.Seq(), "strategy": name, "node": id, "color": int(c), "assigned": ok,
		})
		return
	}
	a, ok := v.Assignment(name)
	if !ok {
		httpErr(w, http.StatusNotFound, fmt.Errorf("strategy %q not hosted", name))
		return
	}
	colors := make(map[string]int, len(a))
	for id, c := range a {
		colors[strconv.Itoa(int(id))] = int(c)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"seq": v.Seq(), "strategy": name, "max_color": int(a.MaxColor()), "colors": colors,
	})
}

// RenderConflicts answers a conflict-neighborhood read (?node=) from a
// view.
func RenderConflicts(w http.ResponseWriter, r *http.Request, v *View) {
	id, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("node query parameter: %w", err))
		return
	}
	if _, ok := v.Config(graph.NodeID(id)); !ok {
		httpErr(w, http.StatusNotFound, fmt.Errorf("node %d not in network", id))
		return
	}
	ns := v.ConflictNeighbors(graph.NodeID(id))
	ints := make([]int, len(ns))
	for i, n := range ns {
		ints[i] = int(n)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"seq": v.Seq(), "node": id, "conflicts": ints})
}

// RenderMetrics answers a per-strategy metrics read from a view.
func RenderMetrics(w http.ResponseWriter, v *View) {
	type row struct {
		Strategy       string `json:"strategy"`
		Events         int    `json:"events"`
		TotalRecodings int    `json:"total_recodings"`
		MaxColor       int    `json:"max_color"`
		PeakMaxColor   int    `json:"peak_max_color"`
	}
	rows := make([]row, 0, len(v.Strategies()))
	for _, name := range v.Strategies() {
		m, _ := v.MetricsOf(name)
		rows = append(rows, row{
			Strategy:       name,
			Events:         m.Events,
			TotalRecodings: m.TotalRecodings,
			MaxColor:       int(m.MaxColor),
			PeakMaxColor:   int(m.PeakMaxColor),
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"seq": v.Seq(), "nodes": v.NodeCount(), "strategies": rows})
}

// eventsReq carries a batch of events in the trace wire encoding.
type eventsReq struct {
	Events []trace.EventRecord `json:"events"`
}

func applyEvents(s *Session, w http.ResponseWriter, r *http.Request) {
	var req eventsReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	events := make([]strategy.Event, 0, len(req.Events))
	for i, ej := range req.Events {
		ev, err := trace.DecodeEvent(ej)
		if err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("event %d: %w", i, err))
			return
		}
		events = append(events, ev)
	}
	applied := 0
	for _, ev := range events {
		err := s.Apply(ev)
		switch {
		case errors.Is(err, ErrBackpressure):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]interface{}{
				"error": err.Error(), "applied": applied,
			})
			return
		case errors.Is(err, ErrClosed):
			httpErr(w, http.StatusGone, err)
			return
		case err != nil:
			writeJSON(w, http.StatusUnprocessableEntity, map[string]interface{}{
				"error": err.Error(), "applied": applied,
			})
			return
		}
		applied++
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"applied": applied, "seq": s.View().Seq()})
}

func readAssignment(s *Session, w http.ResponseWriter, r *http.Request) {
	RenderAssignment(w, r, s.View())
}

func readConflicts(s *Session, w http.ResponseWriter, r *http.Request) {
	RenderConflicts(w, r, s.View())
}

func readMetrics(s *Session, w http.ResponseWriter, _ *http.Request) {
	RenderMetrics(w, s.View())
}

// watchSession streams deltas as JSON lines until the client leaves or
// the subscription is dropped (lag or session close).
func watchSession(s *Session, w http.ResponseWriter, r *http.Request) {
	ch, cancel := s.Watch()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		// Push the headers now: subscribers block on the stream.
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	type wireDelta struct {
		Seq     int                       `json:"seq"`
		Event   *trace.EventRecord        `json:"event,omitempty"`
		Recoded map[string]map[string]int `json:"recoded"`
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case d, ok := <-ch:
			if !ok {
				return
			}
			wd := wireDelta{Seq: d.Seq, Recoded: map[string]map[string]int{}}
			if ej, err := trace.EncodeEvent(d.Event); err == nil {
				wd.Event = &ej
			}
			for name, rec := range d.Recoded {
				m := make(map[string]int, len(rec))
				for id, c := range rec {
					m[strconv.Itoa(int(id))] = int(c)
				}
				wd.Recoded[name] = m
			}
			if err := enc.Encode(wd); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
