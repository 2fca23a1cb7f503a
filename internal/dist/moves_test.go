package dist

import (
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// mixedScript generates a random mixed event sequence over an existing
// population: moves, power changes, joins, and leaves, always valid
// against the tracked member set.
func mixedScript(rng *xrand.RNG, n, events int, arena float64) []strategy.Event {
	present := make([]graph.NodeID, n)
	for i := range present {
		present[i] = graph.NodeID(i)
	}
	next := graph.NodeID(n)
	var out []strategy.Event
	for len(out) < events {
		switch k := rng.Intn(10); {
		case k < 3 && len(present) > 3: // move
			id := present[rng.Intn(len(present))]
			out = append(out, strategy.MoveEvent(id, geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)}))
		case k < 6 && len(present) > 3: // power change (both directions)
			id := present[rng.Intn(len(present))]
			out = append(out, strategy.PowerEvent(id, rng.Uniform(10, 40)))
		case k < 8: // join
			cfg := adhoc.Config{
				Pos:   geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)},
				Range: rng.Uniform(15, 30),
			}
			out = append(out, strategy.JoinEvent(next, cfg))
			present = append(present, next)
			next++
		default: // leave
			if len(present) <= 3 {
				continue
			}
			i := rng.Intn(len(present))
			out = append(out, strategy.LeaveEvent(present[i]))
			present = append(present[:i], present[i+1:]...)
		}
	}
	return out
}

// seqReference applies the script through the sequential strategy on
// its own engine over a copy of base, returning the final assignment.
func seqReference(t *testing.T, proto string, base *baseState, script []strategy.Event) toca.Assignment {
	t.Helper()
	eng := engine.Adopt(base.Network().Clone())
	var s interface {
		engine.Subscriber
		Assignment() toca.Assignment
	}
	switch proto {
	case "minim":
		s = core.New(eng.Network(), base.Assignment().Clone())
	case "cp":
		s = cp.New(eng.Network(), base.Assignment().Clone())
	}
	eng.Subscribe(s)
	for i, ev := range script {
		if _, err := eng.Apply(ev); err != nil {
			t.Fatalf("%s sequential event %d: %v", proto, i, err)
		}
	}
	return s.Assignment()
}

// runDistributed drives the same script through the message-passing
// runtime, with optional fault injection configured by prep.
func runDistributed(t *testing.T, proto string, base *baseState, script []strategy.Event, prep func(*Engine)) *Runtime {
	t.Helper()
	rt := NewRuntime(99, base.Network().Clone(), base.Assignment().Clone())
	if prep != nil {
		prep(rt.Engine)
	}
	for i, ev := range script {
		if err := rt.Start(ev, proto); err != nil {
			t.Fatalf("%s distributed event %d: %v", proto, i, err)
		}
		if err := rt.Engine.Run(1_000_000); err != nil {
			t.Fatalf("%s distributed event %d: %v", proto, i, err)
		}
	}
	return rt
}

// TestMovePowerProtocolParity: over random mixed scripts (moves, power
// changes, joins, leaves), the distributed minim and cp protocol runs
// assign exactly the colors the sequential algorithms assign, and the
// result is CA1/CA2 valid.
func TestMovePowerProtocolParity(t *testing.T) {
	rng := xrand.New(11)
	for it := 0; it < 15; it++ {
		n := 8 + rng.Intn(20)
		base := buildBase(rng, n, 100)
		script := mixedScript(rng, n, 25, 100)
		for _, proto := range []string{"minim", "cp"} {
			want := seqReference(t, proto, base, script)
			rt := runDistributed(t, proto, base, script, nil)
			got := rt.Assignment()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("it %d proto %s: dist %v, seq %v", it, proto, got, want)
			}
			if !toca.Valid(rt.Net.Graph(), got) {
				t.Fatalf("it %d proto %s: invalid distributed assignment", it, proto)
			}
		}
	}
}

// TestMovePowerFaultInjectionParity: the move and power protocols
// converge to exact sequential parity under the composed fault model —
// 30% message loss with retransmission plus 30% at-least-once
// duplication with receiver-side dedup — like the join protocols
// before them.
func TestMovePowerFaultInjectionParity(t *testing.T) {
	rng := xrand.New(13)
	sawDrop, sawDup := false, false
	for it := 0; it < 8; it++ {
		n := 8 + rng.Intn(16)
		base := buildBase(rng, n, 100)
		script := mixedScript(rng, n, 20, 100)
		for _, proto := range []string{"minim", "cp"} {
			want := seqReference(t, proto, base, script)
			var eng *Engine
			rt := runDistributed(t, proto, base, script, func(e *Engine) {
				e.Unreliable(rng.Uint64(), 0.3, 6)
				e.Duplicate(rng.Uint64(), 0.3, 3)
				eng = e
			})
			got := rt.Assignment()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("it %d proto %s under faults: dist %v, seq %v (dropped %d, duplicated %d)",
					it, proto, got, want, eng.Dropped, eng.Duplicated)
			}
			if !toca.Valid(rt.Net.Graph(), got) {
				t.Fatalf("it %d proto %s under faults: invalid assignment", it, proto)
			}
			sawDrop = sawDrop || eng.Dropped > 0
			sawDup = sawDup || eng.Duplicated > 0
		}
	}
	if !sawDrop || !sawDup {
		t.Fatalf("fault injection inert: drops=%v dups=%v", sawDrop, sawDup)
	}
}

// TestMovePowerMessageLocality: a power decrease and a leave exchange
// zero messages (the removal theorems), and a move's message count
// tracks the neighborhood, not the network.
func TestMovePowerMessageLocality(t *testing.T) {
	rng := xrand.New(17)
	base := buildBase(rng, 25, 100)
	rt := NewRuntime(1, base.Network().Clone(), base.Assignment().Clone())

	if err := rt.StartPower(3, 1.0, "minim"); err != nil { // decrease
		t.Fatal(err)
	}
	if rt.Engine.Pending() != 0 {
		t.Fatalf("power decrease enqueued %d messages", rt.Engine.Pending())
	}
	if err := rt.StartLeave(7); err != nil {
		t.Fatal(err)
	}
	if rt.Engine.Pending() != 0 {
		t.Fatalf("leave enqueued %d messages", rt.Engine.Pending())
	}
	if rt.Net.Has(7) {
		t.Fatal("leave did not remove the node")
	}
	if err := rt.StartLeave(7); err == nil {
		t.Fatal("double leave accepted")
	}
}
