// Package codes implements the CDMA substrate the color indices stand
// for: orthogonal Walsh-Hadamard spreading codes. The paper models codes
// as positive integers ("we consider only the case of orthogonal codes");
// this package realizes that model, mapping each color index to a
// mutually orthogonal chip sequence so the radio simulator can
// demonstrate collision-freedom end to end.
package codes

import "fmt"

// Chip is a single element of a spreading sequence, +1 or -1.
type Chip int8

// Sequence is a spreading code of chips.
type Sequence []Chip

// Walsh returns the n x n Walsh-Hadamard matrix rows as chip sequences.
// n must be a power of two and at least 1. Row 0 is all ones; all rows
// are mutually orthogonal.
func Walsh(n int) ([]Sequence, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("codes: Walsh order %d is not a power of two", n)
	}
	rows := make([]Sequence, n)
	for i := range rows {
		rows[i] = make(Sequence, n)
	}
	// Sylvester construction: H(2k) = [H(k) H(k); H(k) -H(k)].
	rows[0][0] = 1
	for size := 1; size < n; size *= 2 {
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				v := rows[i][j]
				rows[i][j+size] = v
				rows[i+size][j] = v
				rows[i+size][j+size] = -v
			}
		}
	}
	return rows, nil
}

// Codebook maps color indices (1-based, per package toca) to orthogonal
// spreading sequences.
type Codebook struct {
	rows []Sequence
}

// NewCodebook returns a codebook able to serve at least capacity distinct
// codes; the underlying Walsh order is the next power of two >= capacity.
// Row 0 (the all-ones sequence) is reserved — it is the DC row and is
// conventionally kept off the air — so capacity+1 rows are provisioned.
func NewCodebook(capacity int) (*Codebook, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("codes: capacity %d < 1", capacity)
	}
	n := 1
	for n < capacity+1 {
		n *= 2
	}
	rows, err := Walsh(n)
	if err != nil {
		return nil, err
	}
	return &Codebook{rows: rows}, nil
}

// Capacity returns the number of distinct color indices the codebook
// serves.
func (c *Codebook) Capacity() int { return len(c.rows) - 1 }

// ChipLength returns the spreading factor (chips per symbol).
func (c *Codebook) ChipLength() int { return len(c.rows[0]) }

// Code returns the spreading sequence for a color index (1-based).
func (c *Codebook) Code(color int) (Sequence, error) {
	if color < 1 || color > c.Capacity() {
		return nil, fmt.Errorf("codes: color %d out of codebook range 1..%d", color, c.Capacity())
	}
	return c.rows[color], nil
}

// Spread modulates one data symbol (+1/-1) into chips under the given
// color's code.
func (c *Codebook) Spread(color int, symbol int8) (Sequence, error) {
	code, err := c.Code(color)
	if err != nil {
		return nil, err
	}
	out := make(Sequence, len(code))
	for i, ch := range code {
		out[i] = Chip(int8(ch) * symbol)
	}
	return out, nil
}

// Despread correlates a received chip-level signal (possibly the sum of
// several transmissions) against the given color's code and returns the
// normalized symbol estimate: +1, -1, or 0 when the correlation is
// ambiguous.
func (c *Codebook) Despread(color int, signal []int) (int8, error) {
	code, err := c.Code(color)
	if err != nil {
		return 0, err
	}
	if len(signal) != len(code) {
		return 0, fmt.Errorf("codes: signal length %d != chip length %d", len(signal), len(code))
	}
	sum := 0
	for i, ch := range code {
		sum += int(ch) * signal[i]
	}
	switch {
	case sum > 0:
		return 1, nil
	case sum < 0:
		return -1, nil
	default:
		return 0, nil
	}
}
