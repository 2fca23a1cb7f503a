// Inhomogeneous Poisson point process (IPPP) arrivals: join positions
// drawn from a spatially varying intensity instead of the paper's
// uniform arena. The density is a base level plus a sum of Gaussian
// hot spots, and sampling uses the standard thinning construction
// (Lewis & Shedler): draw a uniform candidate, accept it with
// probability lambda(p)/lambdaMax. Thinning preserves determinism — the
// whole script is a pure function of the seed — and makes the sampler
// exact for any density bounded by lambdaMax.
package workload

import (
	"math"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/xrand"
)

// HotSpot is one Gaussian component of an inhomogeneous arrival density.
type HotSpot struct {
	Center geom.Point
	Sigma  float64 // spatial spread of the component
	Weight float64 // peak intensity added at the center
}

// Density is an inhomogeneous arrival intensity over the arena: a flat
// Base level plus Gaussian hot spots. The zero value (no spots, zero
// base) is invalid for sampling; use a positive Base or at least one
// spot with positive Weight and Sigma.
type Density struct {
	Base  float64
	Spots []HotSpot
}

// At evaluates the (unnormalized) intensity at p.
func (d Density) At(p geom.Point) float64 {
	v := d.Base
	for _, s := range d.Spots {
		if s.Sigma <= 0 || s.Weight <= 0 {
			continue
		}
		v += s.Weight * math.Exp(-p.DistanceSqTo(s.Center)/(2*s.Sigma*s.Sigma))
	}
	return v
}

// max upper-bounds the intensity anywhere: the base plus every spot at
// full weight (each Gaussian peaks at its center with value Weight).
func (d Density) max() float64 {
	v := d.Base
	for _, s := range d.Spots {
		if s.Sigma > 0 && s.Weight > 0 {
			v += s.Weight
		}
	}
	return v
}

// GridSpots returns gx x gy hot spots centered on the cells of a regular
// grid over a w x h arena, all with the given sigma and weight.
func GridSpots(gx, gy int, w, h, sigma, weight float64) []HotSpot {
	spots := make([]HotSpot, 0, gx*gy)
	for i := 0; i < gx; i++ {
		for j := 0; j < gy; j++ {
			spots = append(spots, HotSpot{
				Center: geom.Point{
					X: (float64(i) + 0.5) * w / float64(gx),
					Y: (float64(j) + 0.5) * h / float64(gy),
				},
				Sigma:  sigma,
				Weight: weight,
			})
		}
	}
	return spots
}

// Sample draws one position from the density by thinning. It consumes a
// variable number of rng draws (rejections included), which is fine: any
// script built from it remains a deterministic function of the seed.
func (d Density) Sample(rng *xrand.RNG, w, h float64) geom.Point {
	lmax := d.max()
	if lmax <= 0 || math.IsNaN(lmax) || math.IsInf(lmax, 0) {
		// Degenerate density: fall back to uniform rather than spin.
		return geom.Point{X: rng.Uniform(0, w), Y: rng.Uniform(0, h)}
	}
	for {
		p := geom.Point{X: rng.Uniform(0, w), Y: rng.Uniform(0, h)}
		if rng.Float64()*lmax <= d.At(p) {
			return p
		}
	}
}

// IPPPJoinScript is JoinScript with positions drawn from the given
// inhomogeneous density by thinning: p.N consecutive joins with node IDs
// 0..N-1, positions IPPP-distributed over the arena, ranges uniform in
// (MinR, MaxR) as in the homogeneous generator.
func IPPPJoinScript(seed uint64, p Params, d Density) []strategy.Event {
	rng := xrand.New(seed)
	events := make([]strategy.Event, 0, p.N)
	for i := 0; i < p.N; i++ {
		cfg := adhoc.Config{
			Pos:   d.Sample(rng, p.ArenaW, p.ArenaH),
			Range: rng.Uniform(p.MinR, p.MaxR),
		}
		events = append(events, strategy.JoinEvent(graph.NodeID(i), cfg))
	}
	return events
}
