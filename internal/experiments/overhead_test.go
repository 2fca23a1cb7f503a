package experiments

import "testing"

func TestFigM1Shape(t *testing.T) {
	fig, err := ByID("m1", Config{Runs: 4, Seed: 15, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "m1" || len(fig.Series) != 4 {
		t.Fatalf("figure = %+v", fig)
	}
	get := func(label string) Series {
		for _, s := range fig.Series {
			if s.Label == label {
				return s
			}
		}
		t.Fatalf("series %q missing", label)
		return Series{}
	}
	minimFixed := get("Minim")
	minimConst := get("Minim-constdensity")
	// Messages are positive wherever the joiner lands near others; at
	// least the largest-N point must show traffic.
	last := len(minimFixed.Y) - 1
	if minimFixed.Y[last] <= 0 {
		t.Fatalf("no messages at N=%g: %v", minimFixed.X[last], minimFixed.Y)
	}
	// Locality: on the fixed arena, messages grow with N (density). At
	// constant density they stay within a factor ~2 of the smallest-N
	// point instead of growing ~5x like density does.
	if minimFixed.Y[last] <= minimFixed.Y[0] {
		t.Fatalf("fixed-arena messages did not grow with N: %v", minimFixed.Y)
	}
	growthFixed := minimFixed.Y[last] / max(minimFixed.Y[0], 1)
	growthConst := minimConst.Y[last] / max(minimConst.Y[0], 1)
	if growthConst >= growthFixed {
		t.Fatalf("constant-density growth %.2f >= fixed-arena growth %.2f — protocol not local?",
			growthConst, growthFixed)
	}
}

func TestFigM1ViaByID(t *testing.T) {
	fig, err := ByID("m1", Config{Runs: 1, Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "m1" {
		t.Fatalf("ID = %q", fig.ID)
	}
}
