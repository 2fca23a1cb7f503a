package benchjson

import "testing"

// TestBenchEventsDeterministic: the bench workload is identical across
// calls, so artifact numbers from different runs measure the same work.
func TestBenchEventsDeterministic(t *testing.T) {
	a, b := benchEvents(512), benchEvents(512)
	if len(a) != 512 {
		t.Fatalf("got %d events", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across calls: %+v vs %+v", i, a[i], b[i])
		}
	}
}
