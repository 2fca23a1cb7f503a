// Package xrand implements a small deterministic pseudo-random number
// generator (splitmix64) used by all workload generators.
//
// Using our own generator rather than math/rand guarantees that workload
// streams are bit-reproducible across Go releases, which matters when the
// benchmark harness compares series against recorded expectations.
package xrand

import "math"

// RNG is a splitmix64 pseudo-random number generator. The zero value is a
// valid generator seeded with 0; prefer New for explicit seeding.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Angle returns a uniform angle in [0, 2*pi).
func (r *RNG) Angle() float64 {
	return r.Float64() * 2 * math.Pi
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection-free bound is overkill here; a
	// simple modulo over 64 bits has negligible bias for simulation sizes.
	return int(r.Uint64() % uint64(n))
}

// Bool returns a uniform boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample called with k out of range")
	}
	p := r.Perm(n)
	return p[:k]
}

// Split derives an independent child generator from r. The child's stream
// is decorrelated from the parent's by mixing a fresh draw.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}
