package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

func decode(t *testing.T, rr *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(rr.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %q: %v", rr.Body.String(), err)
	}
}

// TestHTTPEndToEnd drives the whole API surface: create, apply a trace,
// read assignments/conflicts/metrics, list, status, close — and checks
// the applied state against a reference engine session.
func TestHTTPEndToEnd(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.CloseAll()
	h := NewHandler(m)

	if rr := postJSON(t, h, "/v1/sessions", map[string]interface{}{"id": "web"}); rr.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rr.Code, rr.Body.String())
	}
	if rr := postJSON(t, h, "/v1/sessions", map[string]interface{}{"id": "web"}); rr.Code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", rr.Code)
	}

	base, _ := testScript(37, 25, 0)
	recs := make([]trace.EventRecord, len(base))
	for i, ev := range base {
		var err error
		if recs[i], err = trace.EncodeEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	rr := postJSON(t, h, "/v1/sessions/web/events", map[string]interface{}{"events": recs})
	if rr.Code != http.StatusOK {
		t.Fatalf("apply: %d %s", rr.Code, rr.Body.String())
	}
	var applied struct {
		Applied int `json:"applied"`
		Seq     int `json:"seq"`
	}
	decode(t, rr, &applied)
	if applied.Applied != len(base) || applied.Seq != len(base) {
		t.Fatalf("applied %+v", applied)
	}

	ref, err := sim.NewEngineSession([]sim.StrategyName{sim.Minim, sim.CP, sim.BBB}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Apply(base); err != nil {
		t.Fatal(err)
	}

	// Full assignment.
	rr = get(t, h, "/v1/sessions/web/assignment?strategy=Minim")
	if rr.Code != http.StatusOK {
		t.Fatalf("assignment: %d", rr.Code)
	}
	var asg struct {
		MaxColor int            `json:"max_color"`
		Colors   map[string]int `json:"colors"`
	}
	decode(t, rr, &asg)
	st, _ := ref.StrategyOf(sim.Minim)
	if len(asg.Colors) != len(st.Assignment()) {
		t.Fatalf("assignment size %d, want %d", len(asg.Colors), len(st.Assignment()))
	}
	for id, c := range st.Assignment() {
		if asg.Colors[fmt.Sprint(int(id))] != int(c) {
			t.Fatalf("color of %d = %d, want %d", id, asg.Colors[fmt.Sprint(int(id))], c)
		}
	}

	// Single node + unknown strategy.
	if rr = get(t, h, "/v1/sessions/web/assignment?strategy=CP&node=3"); rr.Code != http.StatusOK {
		t.Fatalf("node assignment: %d", rr.Code)
	}
	if rr = get(t, h, "/v1/sessions/web/assignment?strategy=Nope"); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown strategy: %d", rr.Code)
	}

	// Conflict neighborhood.
	rr = get(t, h, "/v1/sessions/web/conflicts?node=3")
	if rr.Code != http.StatusOK {
		t.Fatalf("conflicts: %d %s", rr.Code, rr.Body.String())
	}
	if rr = get(t, h, "/v1/sessions/web/conflicts?node=999"); rr.Code != http.StatusNotFound {
		t.Fatalf("conflicts of unknown node: %d", rr.Code)
	}

	// Metrics.
	rr = get(t, h, "/v1/sessions/web/metrics")
	var met struct {
		Nodes      int `json:"nodes"`
		Strategies []struct {
			Strategy       string `json:"strategy"`
			TotalRecodings int    `json:"total_recodings"`
		} `json:"strategies"`
	}
	decode(t, rr, &met)
	if met.Nodes != 25 || len(met.Strategies) != 3 {
		t.Fatalf("metrics %+v", met)
	}
	rm, _ := ref.MetricsOf(sim.Minim)
	if met.Strategies[0].TotalRecodings != rm.TotalRecodings {
		t.Fatalf("Minim recodings %d, want %d", met.Strategies[0].TotalRecodings, rm.TotalRecodings)
	}

	// Malformed event payloads are rejected before any state change.
	rr = postJSON(t, h, "/v1/sessions/web/events", map[string]interface{}{
		"events": []map[string]interface{}{{"kind": "warp", "id": 1}},
	})
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed event: %d", rr.Code)
	}
	// A semantically invalid event reports 422 with the applied count.
	dup, _ := trace.EncodeEvent(base[0])
	rr = postJSON(t, h, "/v1/sessions/web/events", map[string]interface{}{"events": []trace.EventRecord{dup}})
	if rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate join over HTTP: %d", rr.Code)
	}

	// List + status + close.
	if rr = get(t, h, "/v1/sessions"); rr.Code != http.StatusOK {
		t.Fatalf("list: %d", rr.Code)
	}
	if rr = get(t, h, "/v1/sessions/web"); rr.Code != http.StatusOK {
		t.Fatalf("status: %d", rr.Code)
	}
	req := httptest.NewRequest("DELETE", "/v1/sessions/web", nil)
	drr := httptest.NewRecorder()
	h.ServeHTTP(drr, req)
	if drr.Code != http.StatusOK {
		t.Fatalf("close: %d", drr.Code)
	}
	if rr = get(t, h, "/v1/sessions/web"); rr.Code != http.StatusNotFound {
		t.Fatalf("status after close: %d", rr.Code)
	}
}

// TestHTTPCreateRejectsUnknownFields: POST /v1/sessions answers 400 to
// a body carrying a field the API does not define, instead of creating
// a session with that setting silently dropped. The canary's create
// payload still gets 201.
func TestHTTPCreateRejectsUnknownFields(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.CloseAll()
	h := NewHandler(m)
	for _, body := range []map[string]interface{}{
		{"id": "s", "grid_x": 2},
		{"id": "s", "sync_evry": 1},
	} {
		if rr := postJSON(t, h, "/v1/sessions", body); rr.Code != http.StatusBadRequest {
			t.Fatalf("create %v: %d %s, want 400", body, rr.Code, rr.Body.String())
		}
	}
	if ids := m.List(); len(ids) != 0 {
		t.Fatalf("rejected creates left sessions %v", ids)
	}
	canary := map[string]interface{}{"id": "s", "strategies": []string{"Minim"}, "sync_every": 1}
	if rr := postJSON(t, h, "/v1/sessions", canary); rr.Code != http.StatusCreated {
		t.Fatalf("canary-shaped create: %d %s, want 201", rr.Code, rr.Body.String())
	}
}

// TestHTTPWatchStream: the watch endpoint streams one JSON line per
// delta.
func TestHTTPWatchStream(t *testing.T) {
	m := NewManager("")
	defer m.CloseAll()
	h := NewHandler(m)
	if rr := postJSON(t, h, "/v1/sessions", map[string]interface{}{"id": "w", "strategies": []string{"Minim"}}); rr.Code != http.StatusCreated {
		t.Fatalf("create: %d", rr.Code)
	}
	s, _ := m.Get("w")

	base, _ := testScript(43, 10, 0)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/sessions/w/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	for _, ev := range base {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 1; i <= len(base); i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d deltas: %v", i-1, sc.Err())
		}
		var d struct {
			Seq     int                       `json:"seq"`
			Event   *trace.EventRecord        `json:"event"`
			Recoded map[string]map[string]int `json:"recoded"`
		}
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if d.Seq != i || d.Event == nil || d.Event.Kind != "join" {
			t.Fatalf("line %d: %+v", i, d)
		}
		if _, ok := d.Recoded["Minim"]; !ok {
			t.Fatalf("line %d missing Minim recodings", i)
		}
	}
}

// TestHTTPBackpressure: a flooded session surfaces 429 with Retry-After.
func TestHTTPBackpressure(t *testing.T) {
	m := NewManager("")
	defer m.CloseAll()
	h := NewHandler(m)
	if rr := postJSON(t, h, "/v1/sessions", map[string]interface{}{"id": "full", "strategies": []string{"Minim"}, "mailbox": 2}); rr.Code != http.StatusCreated {
		t.Fatalf("create: %d", rr.Code)
	}
	s, _ := m.Get("full")
	block := make(chan struct{})
	started := make(chan struct{})
	go s.inspect(func() { close(started); <-block })
	<-started
	base, _ := testScript(47, 5, 0)
	// Park the writer and fill the mailbox so the HTTP apply bounces
	// immediately instead of queueing.
	for _, ev := range base[:2] {
		if err := s.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	var recs []trace.EventRecord
	for _, ev := range base[2:] {
		ej, _ := trace.EncodeEvent(ev)
		recs = append(recs, ej)
	}
	rr := postJSON(t, h, "/v1/sessions/full/events", map[string]interface{}{"events": recs})
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("flooded apply: %d %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(block)
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
}
