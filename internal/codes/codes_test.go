package codes

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestWalshOrders(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		rows, err := Walsh(n)
		if err != nil {
			t.Fatalf("Walsh(%d): %v", n, err)
		}
		if len(rows) != n {
			t.Fatalf("Walsh(%d) has %d rows", n, len(rows))
		}
		for i := 0; i < n; i++ {
			if len(rows[i]) != n {
				t.Fatalf("row %d length %d", i, len(rows[i]))
			}
			for j := 0; j < n; j++ {
				d, err := Dot(rows[i], rows[j])
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				if i == j {
					want = n
				}
				if d != want {
					t.Fatalf("Walsh(%d): <row%d,row%d> = %d, want %d", n, i, j, d, want)
				}
			}
		}
	}
}

func TestWalshRow0AllOnes(t *testing.T) {
	rows, err := Walsh(8)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range rows[0] {
		if c != 1 {
			t.Fatalf("row 0 chip %d = %d", j, c)
		}
	}
}

func TestWalshRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -1, 3, 5, 6, 7, 12, 100} {
		if _, err := Walsh(n); err == nil {
			t.Fatalf("Walsh(%d) did not error", n)
		}
	}
}

func TestDotLengthMismatch(t *testing.T) {
	if _, err := Dot(Sequence{1, 1}, Sequence{1}); err == nil {
		t.Fatal("length mismatch did not error")
	}
}

func TestCodebookCapacity(t *testing.T) {
	cases := []struct{ capacity, wantChips int }{
		{1, 2},   // needs 2 rows (row 0 reserved) -> order 2
		{3, 4},   // needs 4 rows -> order 4
		{4, 8},   // needs 5 rows -> order 8
		{7, 8},   // needs 8 rows -> order 8
		{8, 16},  // needs 9 rows -> order 16
		{40, 64}, // needs 41 rows -> order 64
	}
	for _, c := range cases {
		book, err := NewCodebook(c.capacity)
		if err != nil {
			t.Fatalf("NewCodebook(%d): %v", c.capacity, err)
		}
		if book.ChipLength() != c.wantChips {
			t.Fatalf("capacity %d: chip length %d, want %d", c.capacity, book.ChipLength(), c.wantChips)
		}
		if book.Capacity() < c.capacity {
			t.Fatalf("capacity %d: book serves only %d", c.capacity, book.Capacity())
		}
		if err := book.VerifyOrthogonality(); err != nil {
			t.Fatalf("capacity %d: %v", c.capacity, err)
		}
	}
	if _, err := NewCodebook(0); err == nil {
		t.Fatal("NewCodebook(0) did not error")
	}
}

func TestCodeRange(t *testing.T) {
	book, err := NewCodebook(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := book.Code(0); err == nil {
		t.Fatal("color 0 did not error")
	}
	if _, err := book.Code(book.Capacity() + 1); err == nil {
		t.Fatal("out-of-range color did not error")
	}
	if _, err := book.Code(1); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadDespreadRoundTrip(t *testing.T) {
	book, err := NewCodebook(10)
	if err != nil {
		t.Fatal(err)
	}
	for color := 1; color <= book.Capacity(); color++ {
		for _, sym := range []int8{1, -1} {
			chips, err := book.Spread(color, sym)
			if err != nil {
				t.Fatal(err)
			}
			sig := make([]int, len(chips))
			for i, c := range chips {
				sig[i] = int(c)
			}
			dec, err := book.Despread(color, sig)
			if err != nil {
				t.Fatal(err)
			}
			if dec != sym {
				t.Fatalf("color %d symbol %d decoded as %d", color, sym, dec)
			}
		}
	}
}

// TestSuperpositionSeparates: the sum of any set of distinct-code
// transmissions decodes each constituent exactly (the orthogonality
// property the TOCA conditions rely on).
func TestSuperpositionSeparates(t *testing.T) {
	f := func(seed uint64) bool {
		book, err := NewCodebook(12)
		if err != nil {
			return false
		}
		// Choose a subset of colors and symbols from the seed bits.
		sig := make([]int, book.ChipLength())
		chosen := map[int]int8{}
		for color := 1; color <= 12; color++ {
			if seed>>(uint(color)*2)&1 == 0 {
				continue
			}
			sym := int8(1)
			if seed>>(uint(color)*2+1)&1 == 0 {
				sym = -1
			}
			chosen[color] = sym
			chips, err := book.Spread(color, sym)
			if err != nil {
				return false
			}
			for i, c := range chips {
				sig[i] += int(c)
			}
		}
		for color, sym := range chosen {
			dec, err := book.Despread(color, sig)
			if err != nil || dec != sym {
				return false
			}
		}
		// Colors NOT transmitted decode to 0 (no false positives).
		for color := 1; color <= 12; color++ {
			if _, on := chosen[color]; on {
				continue
			}
			dec, err := book.Despread(color, sig)
			if err != nil || dec != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSameCodeCollision: two opposite symbols under one code cancel — the
// physical reality behind CA1/CA2.
func TestSameCodeCollision(t *testing.T) {
	book, err := NewCodebook(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := book.Spread(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := book.Spread(2, -1)
	if err != nil {
		t.Fatal(err)
	}
	sig := make([]int, len(a))
	for i := range a {
		sig[i] = int(a[i]) + int(b[i])
	}
	dec, err := book.Despread(2, sig)
	if err != nil {
		t.Fatal(err)
	}
	if dec != 0 {
		t.Fatalf("colliding opposite symbols decoded as %d, want 0 (garbled)", dec)
	}
}

func TestDespreadLengthMismatch(t *testing.T) {
	book, err := NewCodebook(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := book.Despread(1, []int{1}); err == nil {
		t.Fatal("length mismatch did not error")
	}
	if _, err := book.Despread(99, make([]int, book.ChipLength())); err == nil {
		t.Fatal("bad color did not error")
	}
}

func TestSpreadBadColor(t *testing.T) {
	book, err := NewCodebook(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := book.Spread(0, 1); err == nil {
		t.Fatal("bad color did not error")
	}
}

// VerifyOrthogonality checks that all served codes are pairwise
// orthogonal and each has full autocorrelation. Intended for tests and
// the cmd/verify tool.
func (c *Codebook) VerifyOrthogonality() error {
	n := c.ChipLength()
	for i := 1; i <= c.Capacity(); i++ {
		for j := i; j <= c.Capacity(); j++ {
			d, err := Dot(c.rows[i], c.rows[j])
			if err != nil {
				return err
			}
			if i == j && d != n {
				return fmt.Errorf("codes: autocorrelation of %d is %d, want %d", i, d, n)
			}
			if i != j && d != 0 {
				return fmt.Errorf("codes: cross-correlation of %d and %d is %d, want 0", i, j, d)
			}
		}
	}
	return nil
}

// Dot returns the correlation (inner product) of two equal-length
// sequences.
func Dot(a, b Sequence) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("codes: length mismatch %d vs %d", len(a), len(b))
	}
	sum := 0
	for i := range a {
		sum += int(a[i]) * int(b[i])
	}
	return sum, nil
}
