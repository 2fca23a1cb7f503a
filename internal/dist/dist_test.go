package dist

import (
	"reflect"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// baseState is a Minim-colored network the protocols start from.
type baseState struct {
	net    *adhoc.Network
	assign toca.Assignment
}

func (b *baseState) Network() *adhoc.Network     { return b.net }
func (b *baseState) Assignment() toca.Assignment { return b.assign }

// buildBase joins n random nodes through a sequential Minim recoder and
// returns the result.
func buildBase(rng *xrand.RNG, n int, arena float64) *baseState {
	eng := engine.New()
	r := core.New(eng.Network(), nil)
	eng.Subscribe(r)
	for i := 0; i < n; i++ {
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, arena), Y: rng.Uniform(0, arena)},
			Range: rng.Uniform(15, 30),
		}
		if _, err := eng.Apply(strategy.JoinEvent(graph.NodeID(i), cfg)); err != nil {
			panic(err)
		}
	}
	return &baseState{net: eng.Network(), assign: r.Assignment()}
}

// TestProtocolParity: for random base networks and joiners, the
// distributed minim and cp join protocols assign exactly the colors the
// sequential algorithms assign, and the result is CA1/CA2 valid.
func TestProtocolParity(t *testing.T) {
	rng := xrand.New(5)
	for it := 0; it < 30; it++ {
		n := 5 + rng.Intn(30)
		base := buildBase(rng, n, 100)
		joiner := graph.NodeID(n + 1)
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(15, 30),
		}
		for _, proto := range []string{"minim", "cp"} {
			want := seqReference(t, proto, base, []strategy.Event{strategy.JoinEvent(joiner, cfg)})
			rt := NewRuntime(rng.Uint64(), base.Network().Clone(), base.Assignment().Clone())
			if err := rt.StartJoin(joiner, cfg, proto); err != nil {
				t.Fatal(err)
			}
			if err := rt.Engine.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			got := rt.Assignment()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("it %d proto %s: dist %v, seq %v", it, proto, got, want)
			}
			if !toca.Valid(rt.Net.Graph(), got) {
				t.Fatalf("it %d proto %s: invalid distributed assignment", it, proto)
			}
			if rt.Node(joiner) == nil || rt.Node(joiner).Color() == toca.None {
				t.Fatalf("it %d proto %s: joiner has no color", it, proto)
			}
		}
	}
}

// TestMessageLocality: on a constant-density arena, messages per join
// stay within a constant factor as N quadruples — the protocols are
// local, not global.
func TestMessageLocality(t *testing.T) {
	perJoin := func(n int) float64 {
		side := 100.0 // constant density: area ∝ N
		if n > 25 {
			side = 200.0 // 4x area for 4x nodes
		}
		rng := xrand.New(uint64(n))
		total := 0.0
		const trials = 8
		for trial := 0; trial < trials; trial++ {
			base := buildBase(rng, n, side)
			rt := NewRuntime(rng.Uint64(), base.Network(), base.Assignment())
			joiner := graph.NodeID(n + 1)
			cfg := adhoc.Config{
				Pos:   geom.Point{X: rng.Uniform(0, side), Y: rng.Uniform(0, side)},
				Range: rng.Uniform(15, 30),
			}
			if err := rt.StartJoin(joiner, cfg, "minim"); err != nil {
				t.Fatal(err)
			}
			if err := rt.Engine.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			total += float64(rt.Engine.Delivered)
		}
		return total / trials
	}
	small := perJoin(25)
	large := perJoin(100)
	if small <= 0 {
		t.Fatal("no messages exchanged")
	}
	if large > 4*small+40 {
		t.Fatalf("messages per join grew superlinearly with N at constant density: N=25 -> %.1f, N=100 -> %.1f", small, large)
	}
}

// TestRunLimit: a too-small delivery budget errors instead of spinning.
func TestRunLimit(t *testing.T) {
	rng := xrand.New(3)
	base := buildBase(rng, 20, 60)
	rt := NewRuntime(1, base.Network(), base.Assignment())
	if err := rt.StartJoin(99, adhoc.Config{Pos: geom.Point{X: 30, Y: 30}, Range: 25}, "minim"); err != nil {
		t.Fatal(err)
	}
	if rt.Engine.Pending() == 0 {
		t.Fatal("no protocol messages enqueued")
	}
	if err := rt.Engine.Run(1); err == nil {
		t.Fatal("limit 1 did not error")
	}
}

// TestDroppedMessagesConverge: under heavy message loss with
// retransmission, both join protocols still converge to exactly the
// sequential assignment — the retry path delays but never corrupts the
// gathered inputs, because no assignment changes until every query in a
// phase is answered (minim) or the token holder has all replies (cp).
func TestDroppedMessagesConverge(t *testing.T) {
	rng := xrand.New(17)
	for it := 0; it < 20; it++ {
		n := 5 + rng.Intn(25)
		base := buildBase(rng, n, 100)
		joiner := graph.NodeID(n + 1)
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(15, 30),
		}
		for _, proto := range []string{"minim", "cp"} {
			want := seqReference(t, proto, base, []strategy.Event{strategy.JoinEvent(joiner, cfg)})
			rt := NewRuntime(rng.Uint64(), base.Network().Clone(), base.Assignment().Clone())
			rt.Engine.Unreliable(rng.Uint64(), 0.4, 8)
			if err := rt.StartJoin(joiner, cfg, proto); err != nil {
				t.Fatal(err)
			}
			if err := rt.Engine.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			got := rt.Assignment()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("it %d proto %s: lossy dist %v, seq %v (%d dropped)", it, proto, got, want, rt.Engine.Dropped)
			}
			if !toca.Valid(rt.Net.Graph(), got) {
				t.Fatalf("it %d proto %s: invalid assignment under loss", it, proto)
			}
		}
	}
}

// TestDropBudgetBounded: with drop probability 1, every message is
// delivered after exactly maxDrops losses — the retry budget bounds the
// degradation instead of livelocking.
func TestDropBudgetBounded(t *testing.T) {
	rng := xrand.New(23)
	base := buildBase(rng, 15, 80)
	rt := NewRuntime(7, base.Network(), base.Assignment())
	rt.Engine.Unreliable(7, 1.0, 3)
	joiner := graph.NodeID(99)
	cfg := adhoc.Config{Pos: geom.Point{X: 40, Y: 40}, Range: 25}
	if err := rt.StartJoin(joiner, cfg, "minim"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Engine.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if rt.Engine.Dropped != 3*rt.Engine.Delivered {
		t.Fatalf("dropped %d, delivered %d: budget not exhausted per message",
			rt.Engine.Dropped, rt.Engine.Delivered)
	}
	if !toca.Valid(rt.Net.Graph(), rt.Assignment()) {
		t.Fatal("assignment invalid after exhausted retry budget")
	}
	if rt.Node(joiner).Color() == toca.None {
		t.Fatal("joiner uncolored after exhausted retry budget")
	}
}

// TestStartJoinErrors: duplicate joiners and unknown protocols error.
func TestStartJoinErrors(t *testing.T) {
	rng := xrand.New(4)
	base := buildBase(rng, 5, 50)
	rt := NewRuntime(1, base.Network(), base.Assignment())
	if err := rt.StartJoin(0, adhoc.Config{Range: 10}, "minim"); err == nil {
		t.Fatal("duplicate join did not error")
	}
	if err := rt.StartJoin(77, adhoc.Config{Pos: geom.Point{X: 1, Y: 1}, Range: 10}, "nope"); err == nil {
		t.Fatal("unknown protocol did not error")
	}
}

// TestDuplicatedMessagesConverge: with an at-least-once link re-delivering
// messages, both join protocols converge to the exact sequential
// assignment — the receiver-side sequence-number filter makes every
// handler idempotent, so duplicates are absorbed rather than corrupting
// the reply-counting coordinators.
func TestDuplicatedMessagesConverge(t *testing.T) {
	rng := xrand.New(29)
	sawDup, sawDedup := false, false
	for it := 0; it < 20; it++ {
		n := 5 + rng.Intn(25)
		base := buildBase(rng, n, 100)
		joiner := graph.NodeID(n + 1)
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(15, 30),
		}
		for _, proto := range []string{"minim", "cp"} {
			want := seqReference(t, proto, base, []strategy.Event{strategy.JoinEvent(joiner, cfg)})
			rt := NewRuntime(rng.Uint64(), base.Network().Clone(), base.Assignment().Clone())
			rt.Engine.Duplicate(rng.Uint64(), 0.4, 4)
			if err := rt.StartJoin(joiner, cfg, proto); err != nil {
				t.Fatal(err)
			}
			if err := rt.Engine.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			got := rt.Assignment()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("it %d proto %s: duplicating dist %v, seq %v (%d duplicated)",
					it, proto, got, want, rt.Engine.Duplicated)
			}
			if !toca.Valid(rt.Net.Graph(), got) {
				t.Fatalf("it %d proto %s: invalid assignment under duplication", it, proto)
			}
			if rt.Engine.Duplicated != rt.Engine.Deduped {
				t.Fatalf("it %d proto %s: %d duplicates injected but %d suppressed",
					it, proto, rt.Engine.Duplicated, rt.Engine.Deduped)
			}
			sawDup = sawDup || rt.Engine.Duplicated > 0
			sawDedup = sawDedup || rt.Engine.Deduped > 0
		}
	}
	if !sawDup || !sawDedup {
		t.Fatalf("fault injection never fired (dup=%v dedup=%v)", sawDup, sawDedup)
	}
}

// TestDuplicateAndLossCompose: a link that both loses and repeats
// messages still converges to sequential parity — retransmission supplies
// at-least-once delivery, the sequence-number filter trims it back to
// exactly-once.
func TestDuplicateAndLossCompose(t *testing.T) {
	rng := xrand.New(31)
	for it := 0; it < 10; it++ {
		n := 5 + rng.Intn(20)
		base := buildBase(rng, n, 100)
		joiner := graph.NodeID(n + 1)
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(15, 30),
		}
		for _, proto := range []string{"minim", "cp"} {
			want := seqReference(t, proto, base, []strategy.Event{strategy.JoinEvent(joiner, cfg)})
			rt := NewRuntime(rng.Uint64(), base.Network().Clone(), base.Assignment().Clone())
			rt.Engine.Unreliable(rng.Uint64(), 0.3, 6)
			rt.Engine.Duplicate(rng.Uint64(), 0.3, 3)
			if err := rt.StartJoin(joiner, cfg, proto); err != nil {
				t.Fatal(err)
			}
			if err := rt.Engine.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if got := rt.Assignment(); !reflect.DeepEqual(want, got) {
				t.Fatalf("it %d proto %s: dup+loss dist %v, seq %v (dropped %d, duplicated %d)",
					it, proto, got, want, rt.Engine.Dropped, rt.Engine.Duplicated)
			}
			if !toca.Valid(rt.Net.Graph(), rt.Assignment()) {
				t.Fatalf("it %d proto %s: invalid assignment under dup+loss", it, proto)
			}
		}
	}
}

// Pending returns the number of undelivered messages.
func (e *Engine) Pending() int { return len(e.queue) }
