package cp

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/workload"
)

func TestStrictMoveName(t *testing.T) {
	s := New(adhoc.New(), nil)
	if s.Name() != "CP" {
		t.Fatal("default name")
	}
	s.StrictMove = true
	if s.Name() != "CP-strict" {
		t.Fatal("strict name")
	}
}

// TestStrictMoveAlwaysRecodesMover: under the literal leave+join reading
// the mover's re-selection is always a fresh assignment (counts as a
// recoding), even when it lands on the same color.
func TestStrictMoveAlwaysRecodesMover(t *testing.T) {
	build := func(strict bool) *host {
		s := newHost()
		s.StrictMove = strict
		mustJoin(t, s, 1, 0, 0, 20)
		mustJoin(t, s, 2, 3, 0, 20)
		mustJoin(t, s, 3, 60, 0, 20)
		mustJoin(t, s, 4, 63, 0, 20)
		return s
	}
	// A move to an equivalent spot where the default CP re-picks the old
	// color: move node 2 slightly within its cluster.
	lax := build(false)
	outLax, err := lax.Move(2, geom.Point{X: 4, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	strict := build(true)
	outStrict, err := strict.Move(2, geom.Point{X: 4, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, lax)
	checkValid(t, strict)
	if outLax.Recodings() != 0 {
		t.Fatalf("lax move recoded %d, want 0 (re-picked old color)", outLax.Recodings())
	}
	if outStrict.Recodings() != 1 {
		t.Fatalf("strict move recoded %d, want 1 (fresh assignment)", outStrict.Recodings())
	}
}

// TestStrictMoveValidityOnWorkload: the strict variant stays CA1/CA2
// valid across the paper's movement workload and recodes at least as
// much as the default CP.
func TestStrictMoveValidityOnWorkload(t *testing.T) {
	p := workload.Defaults()
	p.N = 30
	p.MaxDisp = 40
	p.RoundNo = 3
	base := workload.JoinScript(21, p)
	phase := workload.MoveScript(21, p)

	run := func(strict bool) (delta int) {
		s := newHost()
		s.StrictMove = strict
		for _, ev := range base {
			if _, err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
			checkValid(t, s)
		}
		for _, ev := range phase {
			out, err := s.Apply(ev)
			if err != nil {
				t.Fatal(err)
			}
			checkValid(t, s)
			delta += out.Recodings()
		}
		return delta
	}
	laxDelta := run(false)
	strictDelta := run(true)
	if strictDelta < laxDelta {
		t.Fatalf("strict Δ %d < lax Δ %d", strictDelta, laxDelta)
	}
	if strictDelta < p.N*p.RoundNo {
		t.Fatalf("strict Δ %d < one per move (%d) — mover must always recode",
			strictDelta, p.N*p.RoundNo)
	}
}
