package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/adhoc"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func encodeStream(t *testing.T, s stream) []byte {
	t.Helper()
	var buf []byte
	var err error
	for i, ev := range append(append([]strategy.Event(nil), s.Base...), s.Events...) {
		if buf, err = trace.AppendEventFrame(buf, i+1, ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func TestGenerateIsDeterministic(t *testing.T) {
	p := sparseParams()
	a := encodeStream(t, generate(7, p, 5000))
	b := encodeStream(t, generate(7, p, 5000))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if bytes.Equal(a, encodeStream(t, generate(8, p, 5000))) {
		t.Fatal("different seeds gave the same stream")
	}
}

// TestGenerateIsStationary replays a long stream and requires the
// population, mean range and mean degree seen over its first and last
// tenth to agree, so no benchmark figure depends on run length.
func TestGenerateIsStationary(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		p := sparseParams()
		const count = 30000
		s := generate(seed, p, count)
		cfgs := make(map[graph.NodeID]adhoc.Config)
		for _, ev := range s.Base {
			cfgs[ev.ID] = ev.Cfg
		}
		var first, last windowStats
		for i, ev := range s.Events {
			switch ev.Kind {
			case strategy.Join:
				if _, ok := cfgs[ev.ID]; ok {
					t.Fatalf("event %d joins live node %d", i, ev.ID)
				}
				cfgs[ev.ID] = ev.Cfg
			case strategy.Leave:
				delete(cfgs, ev.ID)
			case strategy.Move:
				c, ok := cfgs[ev.ID]
				if !ok {
					t.Fatalf("event %d moves absent node %d", i, ev.ID)
				}
				c.Pos = ev.Pos
				cfgs[ev.ID] = c
			case strategy.PowerChange:
				c := cfgs[ev.ID]
				c.Range = ev.R
				cfgs[ev.ID] = c
			}
			if i%50 != 0 {
				continue
			}
			switch {
			case i < count/10:
				first.add(cfgs)
			case i >= count-count/10:
				last.add(cfgs)
			}
		}
		for _, c := range []struct {
			name      string
			a, b, tol float64
		}{
			{"population", first.mean(0), last.mean(0), 0.01},
			{"mean range", first.mean(1), last.mean(1), 0.02},
			{"mean degree", first.mean(2), last.mean(2), 0.08},
		} {
			if rel := math.Abs(c.a-c.b) / c.a; rel > c.tol {
				t.Errorf("seed %d: %s drifts from %.3f to %.3f (%.1f%% > %.0f%%)", seed, c.name, c.a, c.b, 100*rel, 100*c.tol)
			}
		}
	}
}

// windowStats accumulates population, mean range and mean out-degree
// (nodes inside a node's range) over sampled network states.
type windowStats struct {
	sum [3]float64
	n   int
}

func (w *windowStats) add(cfgs map[graph.NodeID]adhoc.Config) {
	var rangeSum, degSum float64
	for id, c := range cfgs {
		rangeSum += c.Range
		for other, o := range cfgs {
			if other != id && c.Covers(o.Pos) {
				degSum++
			}
		}
	}
	n := float64(len(cfgs))
	w.sum[0] += n
	w.sum[1] += rangeSum / n
	w.sum[2] += degSum / n
	w.n++
}

func (w *windowStats) mean(i int) float64 { return w.sum[i] / float64(w.n) }
