package cluster

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// shipBodyFixture is a valid ship body for session "x": a header line
// announcing n events from seq 1, then their frames.
func shipBodyFixture(t testing.TB, n int) []byte {
	t.Helper()
	fd := feedWithFrames(t, n)
	sh := newShipper("x", "follower-1", SessionConfig{Strategies: []string{"Minim"}})
	batch, ok := sh.next(fd, "primary-1")
	if !ok || batch.count != n {
		t.Fatalf("fixture batch holds %d events, want %d", batch.count, n)
	}
	return append([]byte(nil), batch.body...)
}

// TestShipRejectsBadBodiesBeforeAllocating: the follower's ship endpoint
// answers 400 to a header whose count is negative or above the
// per-request cap — without sizing anything from it — and to a body of
// NDJSON records instead of frames.
func TestShipRejectsBadBodiesBeforeAllocating(t *testing.T) {
	n, err := NewNode(Config{ID: "f", Dir: t.TempDir(), Log: obs.NewLogger(io.Discard, obs.LevelError)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	h := n.Handler()
	for name, body := range map[string]string{
		"negative count": `{"session":"x","count":-1}` + "\n",
		"huge count":     `{"session":"x","count":1000000}` + "\n",
		"NDJSON event":   `{"session":"x","from":0,"count":1}` + "\n" + `{"ev":{"kind":"leave","id":1}}` + "\n",
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/ship/x", bytes.NewBufferString(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: rejecting the body allocated %d bytes", name, got)
		}
	}
}

// FuzzShipBody: no body panics the follower's decoder, and an accepted
// body holds exactly the announced number of events, framed with
// contiguous seqs from the header's From.
func FuzzShipBody(f *testing.F) {
	f.Add([]byte(`{"session":"x","count":-1}` + "\n"))
	f.Add([]byte(`{"session":"x","count":1}` + "\n" + string([]byte{trace.FrameMagic, 0x02, 0x01, 0x80, 0x80, 0x80, 0x60})))
	f.Add(shipBodyFixture(f, 64))
	f.Add([]byte(`{"session":"x","from":0,"count":1}` + "\n" + `{"ev":{"kind":"leave","id":1}}` + "\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, evs, err := decodeShipBody("x", bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(evs) != req.Count {
			t.Fatalf("accepted %d events, header announced %d", len(evs), req.Count)
		}
		br := bufio.NewReader(bytes.NewReader(body))
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatal(err)
		}
		recs, _, err := trace.ReadRecords(br)
		if err != nil || len(recs) != len(evs) {
			t.Fatalf("re-read %d frames (err %v), decoder accepted %d", len(recs), err, len(evs))
		}
		for i, r := range recs {
			if r.Seq != req.From+i {
				t.Fatalf("frame %d carries seq %d, want %d", i, r.Seq, req.From+i)
			}
		}
	})
}

// TestCreateRejectsUnknownFields: POST /cluster/sessions answers 400 to
// a body carrying a field the API does not define, at the top level or
// inside config, instead of creating a session with that setting
// silently dropped. The canary's create payload still gets 201.
func TestCreateRejectsUnknownFields(t *testing.T) {
	n, err := NewNode(Config{ID: "p", Dir: t.TempDir(), Log: obs.NewLogger(io.Discard, obs.LevelError)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	h := n.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/cluster/sessions", bytes.NewBufferString(body)))
		return rr
	}
	for _, body := range []string{
		`{"id":"s","grid_x":2}`,
		`{"id":"s","sync_evry":1}`,
		`{"id":"s","config":{"grid_x":2}}`,
		`{"id":"s","config":{"sync_evry":1}}`,
	} {
		if rr := post(body); rr.Code != http.StatusBadRequest {
			t.Fatalf("create %s: %d %s, want 400", body, rr.Code, rr.Body.String())
		}
	}
	if ids := n.mgr.List(); len(ids) != 0 {
		t.Fatalf("rejected creates left sessions %v", ids)
	}
	if rr := post(`{"id":"s","config":{"strategies":["Minim"],"sync_every":1,"compact_every":4096}}`); rr.Code != http.StatusCreated {
		t.Fatalf("canary-shaped create: %d %s, want 201", rr.Code, rr.Body.String())
	}
}
