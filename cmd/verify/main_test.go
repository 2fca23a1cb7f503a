package main

import (
	"errors"
	"testing"

	"repro/internal/xrand"
)

// TestCertificateHoldsAt3r: at the certificate radius every local
// strategy recodes identically on the restricted and the full network,
// and some events really ran on a smaller network.
func TestCertificateHoldsAt3r(t *testing.T) {
	rng := xrand.New(1)
	var st certStats
	for it := 0; it < 3; it++ {
		s, err := certScenario(rng.Split(), 150, certRadius)
		if err != nil {
			t.Fatalf("scenario %d: %v", it, err)
		}
		st.events += s.events
		st.restricted += s.restricted
	}
	if st.restricted == 0 {
		t.Fatalf("none of %d events ran on a strictly smaller network", st.events)
	}
}

// TestCertificateFailsAtHalfR: a ball of radius r/2 leaves out
// constraints the strategies read, so the check must report a
// mismatch. Without this the 3r pass above could hold vacuously.
func TestCertificateFailsAtHalfR(t *testing.T) {
	rng := xrand.New(1)
	for it := 0; it < 3; it++ {
		_, err := certScenario(rng.Split(), 150, 0.5)
		if errors.Is(err, errRecodedMismatch) {
			t.Logf("scenario %d: %v", it, err)
			return
		}
		if err != nil {
			t.Fatalf("scenario %d: unexpected error: %v", it, err)
		}
	}
	t.Fatal("certificate check found no mismatch at radius r/2")
}
