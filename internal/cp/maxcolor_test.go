package cp

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/xrand"
)

// TestMaxColorAccumulatorDifferential drives CP and CP-strict through
// random churn heavy in leaves and moves (the writes that lower the
// maximum) and asserts, after every event, that the reported max color
// equals a full rescan of the assignment.
func TestMaxColorAccumulatorDifferential(t *testing.T) {
	for _, strict := range []bool{false, true} {
		rng := xrand.New(11)
		s := newHost()
		s.StrictMove = strict
		present := []graph.NodeID{}
		next := graph.NodeID(0)
		pos := func() geom.Point { return geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)} }
		for step := 0; step < 500; step++ {
			var (
				out strategy.Outcome
				err error
			)
			switch k := rng.Intn(10); {
			case k < 4 || len(present) < 3:
				out, err = s.Join(next, adhoc.Config{Pos: pos(), Range: rng.Uniform(15, 35)})
				present = append(present, next)
				next++
			case k < 7:
				i := rng.Intn(len(present))
				out, err = s.Leave(present[i])
				present = append(present[:i], present[i+1:]...)
			case k < 9:
				out, err = s.Move(present[rng.Intn(len(present))], pos())
			default:
				out, err = s.SetRange(present[rng.Intn(len(present))], rng.Uniform(10, 45))
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := s.Assignment().MaxColor(); out.MaxColor != want {
				t.Fatalf("%s step %d: accumulator max %d, rescan %d", s.Name(), step, out.MaxColor, want)
			}
		}
		checkValid(t, s)
	}
}
