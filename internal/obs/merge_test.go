package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestParseScrapeFamilies: # HELP / # TYPE comments populate Families,
// with HELP unescaping.
func TestParseScrapeFamilies(t *testing.T) {
	text := strings.Join([]string{
		`# HELP a_total counts a\nsecond line \\ done`,
		`# TYPE a_total counter`,
		`a_total 3`,
		`# TYPE h_seconds histogram`,
		`h_seconds_bucket{le="+Inf"} 1`,
		`h_seconds_sum 0.5`,
		`h_seconds_count 1`,
	}, "\n")
	sc, err := ParseScrape(text)
	if err != nil {
		t.Fatal(err)
	}
	if f := sc.Families["a_total"]; f.Type != "counter" || f.Help != "counts a\nsecond line \\ done" {
		t.Fatalf("a_total family = %+v", f)
	}
	if f := sc.Families["h_seconds"]; f.Type != "histogram" {
		t.Fatalf("h_seconds family = %+v", f)
	}
	// Registry output carries its own families through the parser.
	reg := NewRegistry()
	reg.Counter("x_total", "with\nnewline and back\\slash").Add(1)
	sc2, err := ParseScrape(reg.Snapshot().RenderText())
	if err != nil {
		t.Fatal(err)
	}
	if f := sc2.Families["x_total"]; f.Help != "with\nnewline and back\\slash" {
		t.Fatalf("help did not round-trip: %q", f.Help)
	}
}

// TestParseScrapeEdgeCases: escaped quotes/backslashes/newlines in
// label values, +Inf/NaN sample values, tab separators.
func TestParseScrapeEdgeCases(t *testing.T) {
	text := strings.Join([]string{
		`esc{v="quote \" backslash \\ newline \n end"} 1`,
		"tabbed\t42",
		"tablabels{a\t=\t\"x\"}\t7",
		`inf_g +Inf`,
		`neginf_g -Inf`,
		`nan_g NaN`,
		`ts_total 5 1712345678901`,
	}, "\n")
	sc, err := ParseScrape(text)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("esc", map[string]string{"v": "quote \" backslash \\ newline \n end"}); !ok || v != 1 {
		t.Fatalf("escaped label value lost: %v %v (samples %+v)", v, ok, sc.Samples)
	}
	if v, ok := sc.Value("tabbed", nil); !ok || v != 42 {
		t.Fatalf("tab-separated value: %v %v", v, ok)
	}
	if v, ok := sc.Value("tablabels", map[string]string{"a": "x"}); !ok || v != 7 {
		t.Fatalf("tabs inside label block: %v %v", v, ok)
	}
	if v, ok := sc.Value("inf_g", nil); !ok || !math.IsInf(v, 1) {
		t.Fatalf("+Inf value: %v %v", v, ok)
	}
	if v, ok := sc.Value("neginf_g", nil); !ok || !math.IsInf(v, -1) {
		t.Fatalf("-Inf value: %v %v", v, ok)
	}
	if v, ok := sc.Value("nan_g", nil); !ok || !math.IsNaN(v) {
		t.Fatalf("NaN value: %v %v", v, ok)
	}
	if v, ok := sc.Value("ts_total", nil); !ok || v != 5 {
		t.Fatalf("trailing timestamp not ignored: %v %v", v, ok)
	}
}

func memberText(lines ...string) *Scrape {
	sc, err := ParseScrape(strings.Join(lines, "\n"))
	if err != nil {
		panic(err)
	}
	return sc
}

// TestMerge pins the aggregation rules: counters and histogram series
// sum, gauges max, PerMember families keep one series per source,
// untyped names fall back to suffix conventions, and every input member
// lands in cluster_member_up.
func TestMerge(t *testing.T) {
	a := memberText(
		`# TYPE serve_events_applied_total counter`,
		`serve_events_applied_total{session="s"} 10`,
		`# TYPE serve_view_seq gauge`,
		`serve_view_seq{session="s"} 40`,
		`# TYPE cluster_members_alive gauge`,
		`cluster_members_alive 3`,
		`# TYPE serve_apply_seconds histogram`,
		`serve_apply_seconds_bucket{session="s",le="0.01"} 4`,
		`serve_apply_seconds_bucket{session="s",le="+Inf"} 5`,
		`serve_apply_seconds_sum{session="s"} 0.5`,
		`serve_apply_seconds_count{session="s"} 5`,
		`mystery_depth 9`,
		`mystery_total 2`,
	)
	b := memberText(
		`# TYPE serve_events_applied_total counter`,
		`serve_events_applied_total{session="s"} 7`,
		`# TYPE serve_view_seq gauge`,
		`serve_view_seq{session="s"} 38`,
		`# TYPE cluster_members_alive gauge`,
		`cluster_members_alive 2`,
		`# TYPE serve_apply_seconds histogram`,
		`serve_apply_seconds_bucket{session="s",le="0.01"} 1`,
		`serve_apply_seconds_bucket{session="s",le="+Inf"} 2`,
		`serve_apply_seconds_sum{session="s"} 1.5`,
		`serve_apply_seconds_count{session="s"} 2`,
		`mystery_depth 4`,
		`mystery_total 3`,
	)
	merged := Merge([]MemberScrape{{"m1", a}, {"m2", b}}, MergeOptions{
		PerMember: map[string]bool{"cluster_members_alive": true},
		Down:      []string{"m3"},
	})

	if v, ok := merged.Value("serve_events_applied_total", map[string]string{"session": "s"}); !ok || v != 17 {
		t.Fatalf("counter sum = %v,%v want 17", v, ok)
	}
	if v, ok := merged.Value("serve_view_seq", map[string]string{"session": "s"}); !ok || v != 40 {
		t.Fatalf("gauge max = %v,%v want 40", v, ok)
	}
	if v, ok := merged.Value("cluster_members_alive", map[string]string{"member": "m1"}); !ok || v != 3 {
		t.Fatalf("per-member m1 = %v,%v want 3", v, ok)
	}
	if v, ok := merged.Value("cluster_members_alive", map[string]string{"member": "m2"}); !ok || v != 2 {
		t.Fatalf("per-member m2 = %v,%v want 2", v, ok)
	}
	if _, ok := merged.Value("cluster_members_alive", map[string]string{}); !ok {
		t.Fatal("per-member family lost its samples")
	}
	if v, ok := merged.Value("serve_apply_seconds_bucket", map[string]string{"session": "s", "le": "0.01"}); !ok || v != 5 {
		t.Fatalf("bucket-wise sum = %v,%v want 5", v, ok)
	}
	if v, ok := merged.Value("serve_apply_seconds_count", map[string]string{"session": "s"}); !ok || v != 7 {
		t.Fatalf("histogram count sum = %v,%v want 7", v, ok)
	}
	if v, ok := merged.Value("serve_apply_seconds_sum", map[string]string{"session": "s"}); !ok || v != 2 {
		t.Fatalf("histogram sum sum = %v,%v want 2", v, ok)
	}
	// Untyped: _total suffix sums, bare name maxes.
	if v, ok := merged.Value("mystery_total", nil); !ok || v != 5 {
		t.Fatalf("untyped _total = %v,%v want 5", v, ok)
	}
	if v, ok := merged.Value("mystery_depth", nil); !ok || v != 9 {
		t.Fatalf("untyped gauge-ish = %v,%v want 9", v, ok)
	}
	// Liveness synthesis.
	for id, want := range map[string]float64{"m1": 1, "m2": 1, "m3": 0} {
		if v, ok := merged.Value(MemberUpFamily, map[string]string{"member": id}); !ok || v != want {
			t.Fatalf("%s{member=%s} = %v,%v want %v", MemberUpFamily, id, v, ok, want)
		}
	}
	// The merge renders and re-parses cleanly, families intact.
	again, err := ParseScrape(merged.RenderText())
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	if f := again.Families["serve_apply_seconds"]; f.Type != "histogram" {
		t.Fatalf("merged family metadata lost: %+v", f)
	}
	if v, ok := again.Value("serve_events_applied_total", map[string]string{"session": "s"}); !ok || v != 17 {
		t.Fatalf("re-parsed counter = %v,%v", v, ok)
	}
	// Quantile still works over the merged buckets.
	if q, ok := again.Quantile("serve_apply_seconds", map[string]string{"session": "s"}, 0.5); !ok || q <= 0 {
		t.Fatalf("merged quantile = %v,%v", q, ok)
	}
}

// canonSample renders one sample into a comparable identity string.
func canonSample(s Sample) string {
	val := "NaN"
	if !math.IsNaN(s.Value) {
		val = strconv.FormatFloat(s.Value, 'g', -1, 64)
	}
	return s.Name + "|" + canonLabels(s.Labels) + "|" + val
}

func sampleSet(sc *Scrape) []string {
	out := make([]string, 0, len(sc.Samples))
	for _, s := range sc.Samples {
		out = append(out, canonSample(s))
	}
	sort.Strings(out)
	return out
}

// TestWriteTextRoundTrip: parse → render → parse reproduces the sample
// set exactly, including escapes and non-finite values.
func TestWriteTextRoundTrip(t *testing.T) {
	text := strings.Join([]string{
		`# HELP weird a help with \n escape and \\ slash`,
		`# TYPE weird gauge`,
		`weird{path="C:\\dir\\file",msg="say \"hi\"\nbye"} 1.25`,
		`weird{path="other"} NaN`,
		`edge +Inf`,
		`edge2 -Inf`,
		`big 1e+06`,
		`negzero -0`,
		`huge 9007199254740992`,
		`# TYPE lat histogram`,
		`lat_bucket{le="0.5"} 1`,
		`lat_bucket{le="+Inf"} 3`,
		`lat_sum 4.5`,
		`lat_count 3`,
	}, "\n")
	first, err := ParseScrape(text)
	if err != nil {
		t.Fatal(err)
	}
	rendered := first.RenderText()
	second, err := ParseScrape(rendered)
	if err != nil {
		t.Fatalf("rendered text does not re-parse: %v\n%s", err, rendered)
	}
	got, want := sampleSet(second), sampleSet(first)
	if len(got) != len(want) {
		t.Fatalf("round trip changed sample count %d -> %d\n%s", len(want), len(got), rendered)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("round trip changed sample %q -> %q", want[i], got[i])
		}
	}
	if f := second.Families["weird"]; f.Help != `a help with `+"\n"+` escape and \ slash` {
		t.Fatalf("help round trip: %q", f.Help)
	}
	// Integral values below 2^53 render as integers; negative zero and
	// larger values keep the float form.
	for _, line := range []string{"big 1000000", "negzero -0", "huge 9.007199254740992e+15"} {
		if !strings.Contains("\n"+rendered, "\n"+line+"\n") {
			t.Fatalf("rendered text lacks %q:\n%s", line, rendered)
		}
	}
	// Rendering is a fixed point: render(parse(render(x))) == render(x).
	if third := second.RenderText(); third != rendered {
		t.Fatalf("render not idempotent:\n--- first ---\n%s--- second ---\n%s", rendered, third)
	}
}

// FuzzScrapeRoundTrip: for any text the parser accepts, rendering and
// re-parsing must reproduce the exact sample multiset — the property
// that makes Merge safe to run on real scrapes.
func FuzzScrapeRoundTrip(f *testing.F) {
	f.Add("a_total 1\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n")
	f.Add(`esc{v="a\\b\"c\nd"} NaN` + "\n")
	f.Add("tab\t+Inf 123456\n")
	f.Add("x{a=\"1\",a=\"2\"} 5\nx{a=\"2\"} 6\n")
	f.Add("# HELP weird with \\n escape\n# TYPE weird gauge\nweird 0x1p-3\n")
	reg := NewRegistry()
	reg.Counter("serve_events_applied_total", "events applied", "session", "a").Add(1_000_000)
	reg.FloatGauge("cluster_replication_lag_seconds", "lag", "follower", "n2").Set(0.25)
	h := reg.Histogram("serve_apply_seconds", "apply latency", []float64{0.001, 0.01}, "session", "a")
	h.Observe(0.0005)
	h.Observe(5)
	f.Add(reg.Snapshot().RenderText())
	f.Fuzz(func(t *testing.T, text string) {
		first, err := ParseScrape(text)
		if err != nil {
			t.Skip()
		}
		rendered := first.RenderText()
		second, err := ParseScrape(rendered)
		if err != nil {
			t.Fatalf("rendered output does not re-parse: %v\ninput: %q\nrendered: %q", err, text, rendered)
		}
		got, want := sampleSet(second), sampleSet(first)
		if len(got) != len(want) {
			t.Fatalf("sample count %d -> %d\ninput: %q\nrendered: %q", len(want), len(got), text, rendered)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sample changed %q -> %q\ninput: %q\nrendered: %q", want[i], got[i], text, rendered)
			}
		}
	})
}

// RenderText returns WriteText's output as a string.
func (s *Scrape) RenderText() string {
	var sb strings.Builder
	s.WriteText(&sb)
	return sb.String()
}
