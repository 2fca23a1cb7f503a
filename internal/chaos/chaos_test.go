package chaos

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// twoServers boots two trivial HTTP servers registered as members "a"
// and "b" on a fresh Net.
func twoServers(t *testing.T, seed uint64) (*Net, *httptest.Server, *httptest.Server) {
	t.Helper()
	mk := func(name string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(name))
		}))
	}
	sa, sb := mk("a"), mk("b")
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	c := NewNet(seed)
	c.Register("a", strings.TrimPrefix(sa.URL, "http://"))
	c.Register("b", strings.TrimPrefix(sb.URL, "http://"))
	return c, sa, sb
}

func get(t *testing.T, client *http.Client, url string) error {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// TestTransportCutAndHeal: a cut link fails with a transport-level
// error (not an HTTP status), the reverse direction stays up, and heal
// restores it.
func TestTransportCutAndHeal(t *testing.T) {
	c, _, sb := twoServers(t, 1)
	fromA := &http.Client{Transport: c.Transport("a", nil)}

	if err := get(t, fromA, sb.URL); err != nil {
		t.Fatalf("clean link failed: %v", err)
	}
	c.CutLink("a", "b")
	err := get(t, fromA, sb.URL)
	if err == nil {
		t.Fatal("cut link served a request")
	}
	if !strings.Contains(err.Error(), "cut") {
		t.Fatalf("cut link failed with %v, want a chaos link error", err)
	}
	if c.Dropped("a", "b") == 0 {
		t.Fatal("cut fired but Dropped(a,b) is zero")
	}
	c.HealLink("a", "b")
	if err := get(t, fromA, sb.URL); err != nil {
		t.Fatalf("healed link failed: %v", err)
	}
}

// TestTransportAsymmetricCut: cutting only b->a lets a's request reach
// b (the server serves it) but kills the response — a sees a transport
// error, the classic at-most-once ambiguity.
func TestTransportAsymmetricCut(t *testing.T) {
	served := 0
	sb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		w.Write([]byte("ok"))
	}))
	defer sb.Close()
	c := NewNet(2)
	c.Register("b", strings.TrimPrefix(sb.URL, "http://"))
	fromA := &http.Client{Transport: c.Transport("a", nil)}

	c.CutLink("b", "a")
	err := get(t, fromA, sb.URL)
	if err == nil {
		t.Fatal("response-cut link reported success to the client")
	}
	if served != 1 {
		t.Fatalf("server served %d requests, want 1 (request direction is up)", served)
	}
	if c.Dropped("b", "a") != 1 {
		t.Fatalf("Dropped(b,a) = %d, want 1", c.Dropped("b", "a"))
	}
}

// TestTransportLossFires: a 100%-loss link drops everything; 0% drops
// nothing; unregistered destinations pass through.
func TestTransportLossFires(t *testing.T) {
	c, _, sb := twoServers(t, 3)
	fromA := &http.Client{Transport: c.Transport("a", nil)}

	c.SetLoss("a", "b", 1.0)
	if err := get(t, fromA, sb.URL); err == nil {
		t.Fatal("p=1 loss let a request through")
	}
	c.SetLoss("a", "b", 0)
	if err := get(t, fromA, sb.URL); err != nil {
		t.Fatalf("p=0 loss dropped a request: %v", err)
	}
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer other.Close()
	c.SetLoss("a", "b", 1.0)
	if err := get(t, fromA, other.URL); err != nil {
		t.Fatalf("unregistered destination was faulted: %v", err)
	}
}

// TestPartitionGroups: Partition cuts exactly the cross-group links,
// both directions; Heal clears all of it. Outsiders keep their links.
func TestPartitionGroups(t *testing.T) {
	c := NewNet(4)
	c.Partition([]string{"a"}, []string{"b", "c"})
	for _, l := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "c"}, {"c", "a"}} {
		if !c.cut[linkKey{l[0], l[1]}] {
			t.Fatalf("link %s->%s not cut by partition", l[0], l[1])
		}
	}
	for _, l := range [][2]string{{"b", "c"}, {"c", "b"}, {"a", "x"}, {"x", "a"}} {
		if c.cut[linkKey{l[0], l[1]}] {
			t.Fatalf("link %s->%s cut; it is within a group or involves an outsider", l[0], l[1])
		}
	}
	c.Heal()
	if len(c.cut) != 0 {
		t.Fatalf("%d cuts survive Heal", len(c.cut))
	}
}

// TestEventLogDeterministic: the same mutation sequence on the same
// seed yields byte-identical event logs — the replay guarantee the
// chaos-matrix runner asserts end to end.
func TestEventLogDeterministic(t *testing.T) {
	run := func() []Event {
		c := NewNet(7)
		c.Register("a", "127.0.0.1:1")
		c.Partition([]string{"a"}, []string{"b", "c"})
		c.SetLoss("b", "c", 0.25)
		c.Heal()
		return c.Events()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical mutation sequences produced different event logs")
	}
}

// fakeEngine records the knob calls a Schedule applies.
type fakeEngine struct {
	seeds []uint64
	probs []float64
}

func (f *fakeEngine) Unreliable(seed uint64, p float64, _ int) {
	f.seeds = append(f.seeds, seed)
	f.probs = append(f.probs, p)
}
func (f *fakeEngine) Duplicate(seed uint64, p float64, _ int) {
	f.seeds = append(f.seeds, seed)
	f.probs = append(f.probs, p)
}
func (f *fakeEngine) Reorder(seed uint64, p float64, _ int) {
	f.seeds = append(f.seeds, seed)
	f.probs = append(f.probs, p)
}

// TestScheduleDeterministic: phase sub-seeds and applied knob seeds are
// pure functions of (master seed, phase index); a different master seed
// diverges.
func TestScheduleDeterministic(t *testing.T) {
	phases := []Phase{
		{Name: "clean", Events: 10},
		{Name: "storm", Events: 10, Loss: 0.2, Dup: 0.2, Reorder: 0.2},
	}
	s1 := NewSchedule(42, phases)
	s2 := NewSchedule(42, phases)
	for i := range phases {
		if s1.PhaseSeed(i) != s2.PhaseSeed(i) {
			t.Fatalf("phase %d seed differs across identical schedules", i)
		}
	}
	if s1.PhaseSeed(0) == s1.PhaseSeed(1) {
		t.Fatal("distinct phases share a sub-seed")
	}
	if NewSchedule(43, phases).PhaseSeed(0) == s1.PhaseSeed(0) {
		t.Fatal("distinct master seeds share a phase seed")
	}

	e1, e2 := &fakeEngine{}, &fakeEngine{}
	s1.Apply(1, e1, nil)
	s2.Apply(1, e2, nil)
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("identical schedules applied different knobs")
	}
	if want := []float64{0.2, 0.2, 0.2}; !reflect.DeepEqual(e1.probs, want) {
		t.Fatalf("applied probabilities %v, want %v", e1.probs, want)
	}
	if len(s1.Events()) != 1 || s1.Events()[0].Action != "phase" {
		t.Fatalf("schedule log %v, want one phase entry", s1.Events())
	}
}

// TestSchedulePartitionHand: a phase with groups partitions the Net; a
// phase without heals it.
func TestSchedulePartitionHand(t *testing.T) {
	c := NewNet(9)
	s := NewSchedule(5, []Phase{
		{Name: "split", Groups: [][]string{{"a"}, {"b"}}},
		{Name: "heal"},
	})
	s.Apply(0, nil, c)
	if !c.cut[linkKey{"a", "b"}] || !c.cut[linkKey{"b", "a"}] {
		t.Fatal("partition phase did not cut the cross-group links")
	}
	s.Apply(1, nil, c)
	if len(c.cut) != 0 {
		t.Fatal("heal phase left links cut")
	}
}

// SetLoss drops requests on the directed link src->dst with probability
// p, drawn from a per-link RNG split off the controller seed.
func (c *Net) SetLoss(src, dst string, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := linkKey{src, dst}
	c.loss[k] = &lossRule{p: p, rng: xrand.New(c.seed ^ linkSeed(src, dst))}
	c.note("loss", fmt.Sprintf("%s->%s p=%g", src, dst, p))
}

// linkSeed derives a stable per-link RNG seed from the link's names
// (fnv64a over "src->dst").
func linkSeed(src, dst string) uint64 {
	h := uint64(1469598103934665603)
	for _, s := range []string{src, "->", dst} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}
