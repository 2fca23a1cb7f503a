package core

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// TestMaxColorAccumulatorDifferential drives a recoder through random
// mixed churn and asserts, after every event, that the incremental
// max-color accumulator equals a full rescan of the assignment — the
// oracle outcome() used to compute.
func TestMaxColorAccumulatorDifferential(t *testing.T) {
	rng := xrand.New(7)
	r := newHost()
	present := []graph.NodeID{}
	next := graph.NodeID(0)
	randCfg := func() adhoc.Config {
		return adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 120), Y: rng.Uniform(0, 120)},
			Range: rng.Uniform(15, 30),
		}
	}
	for step := 0; step < 400; step++ {
		var (
			out strategy.Outcome
			err error
		)
		switch k := rng.Intn(10); {
		case k < 4 || len(present) < 3:
			out, err = r.Join(next, randCfg())
			present = append(present, next)
			next++
		case k < 6:
			i := rng.Intn(len(present))
			out, err = r.Leave(present[i])
			present = append(present[:i], present[i+1:]...)
		case k < 8:
			id := present[rng.Intn(len(present))]
			out, err = r.Move(id, geom.Point{X: rng.Uniform(0, 120), Y: rng.Uniform(0, 120)})
		default:
			id := present[rng.Intn(len(present))]
			out, err = r.SetRange(id, rng.Uniform(10, 40))
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Assignment().MaxColor(); out.MaxColor != want {
			t.Fatalf("step %d: accumulator max %d, rescan %d", step, out.MaxColor, want)
		}
	}
}

// TestSetColorKeepsAccumulator: writes through the tally's Set keep the
// accumulator consistent, including removals that lower the maximum and adoption of a non-empty
// assignment via New.
func TestSetColorKeepsAccumulator(t *testing.T) {
	seed := toca.Assignment{1: 2, 2: 5, 3: 5}
	r := hostOn(adhoc.New(), seed)
	check := func(tag string) {
		t.Helper()
		if got, want := r.colors.Max(), r.Assignment().MaxColor(); got != want {
			t.Fatalf("%s: accumulator max %d, rescan %d", tag, got, want)
		}
	}
	check("adopted")
	r.colors.Set(4, 9)
	check("raise")
	r.colors.Set(4, toca.None)
	check("drop max")
	r.colors.Set(2, 1)
	r.colors.Set(3, 1)
	check("lower both holders of 5")
	r.colors.Set(1, toca.None)
	r.colors.Set(2, toca.None)
	r.colors.Set(3, toca.None)
	check("empty")
	if r.colors.Max() != toca.None {
		t.Fatalf("empty assignment accumulator max %d, want None", r.colors.Max())
	}
}
