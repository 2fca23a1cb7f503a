package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// smallCfg keeps tests fast: 3 runs per point.
func smallCfg() Config {
	return Config{Runs: 3, Seed: 99, Workers: 4}
}

func seriesByLabel(fig Figure, label string) Series {
	for _, s := range fig.Series {
		if s.Label == label {
			return s
		}
	}
	return Series{}
}

func TestFig10aShape(t *testing.T) {
	fig, err := ByID("10a", smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "10a" || len(fig.Series) != 3 {
		t.Fatalf("figure = %+v", fig)
	}
	minim := seriesByLabel(fig, "Minim")
	cp := seriesByLabel(fig, "CP")
	bbbS := seriesByLabel(fig, "BBB")
	if len(minim.X) != 9 {
		t.Fatalf("x axis = %v", minim.X)
	}
	// Paper shape: BBB <= Minim <= CP (within noise) on max color; check
	// the aggregate over the sweep rather than pointwise.
	var sumM, sumC, sumB float64
	for i := range minim.Y {
		sumM += minim.Y[i]
		sumC += cp.Y[i]
		sumB += bbbS.Y[i]
	}
	if sumB > sumM {
		t.Fatalf("BBB aggregate max color %.1f > Minim %.1f", sumB, sumM)
	}
	if sumM > sumC+2 { // Minim may tie CP pointwise; aggregate must not exceed
		t.Fatalf("Minim aggregate max color %.1f > CP %.1f", sumM, sumC)
	}
	// Color need grows with N.
	if minim.Y[len(minim.Y)-1] <= minim.Y[0] {
		t.Fatalf("max color did not grow with N: %v", minim.Y)
	}
}

func TestFig10bcShape(t *testing.T) {
	cfg := smallCfg()
	fb, err := ByID("10b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := ByID("10c", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Series) != 2 {
		t.Fatalf("10c series = %d", len(fc.Series))
	}
	minim := seriesByLabel(fb, "Minim")
	cp := seriesByLabel(fb, "CP")
	bbbS := seriesByLabel(fb, "BBB")
	for i := range minim.X {
		if bbbS.Y[i] < cp.Y[i] {
			t.Fatalf("x=%g: BBB recodings %.1f < CP %.1f", minim.X[i], bbbS.Y[i], cp.Y[i])
		}
	}
	var sumM, sumC float64
	for i := range minim.Y {
		sumM += minim.Y[i]
		sumC += cp.Y[i]
	}
	if sumM > sumC {
		t.Fatalf("Minim aggregate recodings %.1f > CP %.1f", sumM, sumC)
	}
	// Recodings are at least N (every joiner gets a first code).
	for i, x := range minim.X {
		if minim.Y[i] < x {
			t.Fatalf("N=%g: Minim recodings %.1f < N", x, minim.Y[i])
		}
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := smallCfg()
	fb, err := ByID("11b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	minim := seriesByLabel(fb, "Minim")
	cp := seriesByLabel(fb, "CP")
	bbbS := seriesByLabel(fb, "BBB")
	// raisefactor = 1 is a no-op: zero deltas for the local strategies.
	if minim.Y[0] != 0 || cp.Y[0] != 0 {
		t.Fatalf("raisefactor=1 deltas: Minim %.1f CP %.1f", minim.Y[0], cp.Y[0])
	}
	// The paper's headline: Minim recodes far less than CP and BBB.
	var sumM, sumC, sumB float64
	for i := 1; i < len(minim.Y); i++ {
		sumM += minim.Y[i]
		sumC += cp.Y[i]
		sumB += bbbS.Y[i]
	}
	if sumM >= sumC {
		t.Fatalf("Minim Δrecodings %.1f >= CP %.1f", sumM, sumC)
	}
	if sumC >= sumB {
		t.Fatalf("CP Δrecodings %.1f >= BBB %.1f", sumC, sumB)
	}
}

func TestFig12Shape(t *testing.T) {
	cfg := smallCfg()
	fa, err := ByID("12a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa.Series) != 2 {
		t.Fatalf("12a series = %d", len(fa.Series))
	}
	minim := seriesByLabel(fa, "Minim")
	cp := seriesByLabel(fa, "CP")
	// maxdisp = 0: nobody moves anywhere, Minim recodes nothing. (CP may
	// re-pick colors for the mover but lands on the same one: also 0.)
	if minim.Y[0] != 0 {
		t.Fatalf("maxdisp=0 Minim Δ = %.1f", minim.Y[0])
	}
	var sumM, sumC float64
	for i := range minim.Y {
		sumM += minim.Y[i]
		sumC += cp.Y[i]
	}
	if sumM >= sumC {
		t.Fatalf("Minim Δrecodings %.1f >= CP %.1f over maxdisp sweep", sumM, sumC)
	}

	fcFig, err := ByID("12c", cfg)
	if err != nil {
		t.Fatal(err)
	}
	m12c := seriesByLabel(fcFig, "Minim")
	c12c := seriesByLabel(fcFig, "CP")
	// More rounds, more recodings (monotone in aggregate: compare round 1
	// vs round 10).
	if m12c.Y[len(m12c.Y)-1] <= m12c.Y[0] {
		t.Fatalf("Minim Δrecodings not growing with rounds: %v", m12c.Y)
	}
	if c12c.Y[len(c12c.Y)-1] <= c12c.Y[0] {
		t.Fatalf("CP Δrecodings not growing with rounds: %v", c12c.Y)
	}
}

// goldenDigest pins every figure at goldenCfg: figureDigest over
// All(goldenCfg). It changes with any plotted value, label, seed
// derivation or fold order; update it only for an intended change of
// results.
const goldenDigest = "e1e3a69b97bc96afcb5be6b60f2bdc4172209dfb6f4bea19d70ec133570473bc"

var goldenCfg = Config{Runs: 1, Seed: 20010113}

// goldenAll is All(goldenCfg), computed once for the tests that share it.
var goldenAll = sync.OnceValues(func() ([]Figure, error) { return All(goldenCfg) })

// figureDigest hashes the figures' IDs, titles, axis and series labels,
// and the bits of every plotted X, Y and Err.
func figureDigest(figs ...Figure) string {
	h := sha256.New()
	str := func(s string) { fmt.Fprintf(h, "%d:%s", len(s), s) }
	num := func(v []float64) {
		binary.Write(h, binary.LittleEndian, uint64(len(v)))
		for _, x := range v {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	for _, f := range figs {
		str(f.ID)
		str(f.Title)
		str(f.XLabel)
		str(f.YLabel)
		binary.Write(h, binary.LittleEndian, uint64(len(f.Series)))
		for _, s := range f.Series {
			str(s.Label)
			num(s.X)
			num(s.Y)
			num(s.Err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenDigest(t *testing.T) {
	figs, err := goldenAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := figureDigest(figs...); got != goldenDigest {
		t.Fatalf("digest of All = %s, want %s", got, goldenDigest)
	}
}

// TestByIDAndIDs: ByID of every ID is bit-identical to the same figure
// projected by All, although All simulates each section once for the
// union of its figures' strategies.
func TestByIDAndIDs(t *testing.T) {
	all, err := goldenAll()
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	if len(all) != len(ids) {
		t.Fatalf("All returned %d figures for %d IDs", len(all), len(ids))
	}
	for i, id := range ids {
		fig, err := ByID(id, goldenCfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID != id {
			t.Fatalf("ByID(%q).ID = %q", id, fig.ID)
		}
		if len(fig.Series) == 0 || len(fig.Series[0].X) == 0 {
			t.Fatalf("%s: empty figure", id)
		}
		if figureDigest(fig) != figureDigest(all[i]) {
			t.Fatalf("ByID(%q) differs from All()[%d]", id, i)
		}
	}
	if _, err := ByID("99z", goldenCfg); err == nil {
		t.Fatal("unknown id did not error")
	}
	// Zero runs would plot a table of zeros that looks like a result.
	for _, runs := range []int{0, -1} {
		cfg := Config{Runs: runs, Seed: 3}
		if _, err := ByID("12a", cfg); err == nil {
			t.Fatalf("ByID with Runs=%d did not error", runs)
		}
		if _, err := ByID("m1", cfg); err == nil {
			t.Fatalf("ByID(m1) with Runs=%d did not error", runs)
		}
		if _, err := All(cfg); err == nil {
			t.Fatalf("All with Runs=%d did not error", runs)
		}
	}
}

// TestDeterministicAcrossWorkerCounts: every point is folded in run
// order, so the means and CIs of the two cheapest sections are
// bit-identical whatever the worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, id := range []string{"10b", "12a"} {
		a, err := ByID(id, Config{Runs: 8, Seed: 7, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByID(id, Config{Runs: 8, Seed: 7, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range a.Series {
			for i := range s.Y {
				y, e := b.Series[si].Y[i], b.Series[si].Err[i]
				if math.Float64bits(s.Y[i]) != math.Float64bits(y) || math.Float64bits(s.Err[i]) != math.Float64bits(e) {
					t.Fatalf("%s %s x=%g: %v ±%v with 1 worker, %v ±%v with 4",
						id, s.Label, s.X[i], s.Y[i], s.Err[i], y, e)
				}
			}
		}
	}
}

func TestRender(t *testing.T) {
	fig, err := ByID("12a", Config{Runs: 1, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(&buf, fig); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 12a", "Minim", "CP", "maxdisp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// One row per x value plus header, separator, footer.
	if lines := strings.Count(out, "\n"); lines < 12 {
		t.Fatalf("render too short (%d lines):\n%s", lines, out)
	}
}
