package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one metric family's metadata as announced by the
// exposition's `# HELP` / `# TYPE` comment lines. Type is one of
// "counter", "gauge", "histogram", or "untyped".
type Family struct {
	Help string
	Type string
}

// Scrape is a Prometheus sample set: a parsed text exposition (what a
// client gets back from GET /metrics) or a Registry.Snapshot. Families
// carries the HELP/TYPE metadata keyed by family name; histogram
// `_bucket`/`_sum`/`_count` samples belong to the family named by
// their base.
type Scrape struct {
	Samples  []Sample
	Families map[string]Family
}

// ParseScrape parses the text exposition format WriteText renders.
// `# HELP` and `# TYPE` comments populate Families; other comments are
// skipped and optional trailing timestamps ignored.
func ParseScrape(text string) (*Scrape, error) {
	s := &Scrape{Families: map[string]Family{}}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			s.parseComment(line)
			continue
		}
		smp, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: scrape line %d: %w", ln+1, err)
		}
		s.Samples = append(s.Samples, smp)
	}
	return s, nil
}

// parseComment folds a `# HELP name text` or `# TYPE name type` line
// into Families. Malformed comments are ignored — comments are
// advisory in the exposition format.
func (s *Scrape) parseComment(line string) {
	rest, ok := cutDirective(line, "HELP")
	if ok {
		name, help, _ := cutSpace(rest)
		if name == "" {
			return
		}
		f := s.Families[name]
		f.Help = unescapeHelp(help)
		s.Families[name] = f
		return
	}
	rest, ok = cutDirective(line, "TYPE")
	if ok {
		name, typ, _ := cutSpace(rest)
		if name == "" {
			return
		}
		f := s.Families[name]
		f.Type = strings.TrimSpace(typ)
		s.Families[name] = f
	}
}

// cutDirective strips `# <kw> ` from a comment line.
func cutDirective(line, kw string) (string, bool) {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimLeft(rest, " \t")
	if !strings.HasPrefix(rest, kw) {
		return "", false
	}
	rest = rest[len(kw):]
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return strings.TrimLeft(rest, " \t"), true
}

// cutSpace splits at the first space or tab.
func cutSpace(s string) (string, string, bool) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, "", false
	}
	return s[:i], strings.TrimLeft(s[i:], " \t"), true
}

// unescapeHelp reverses HELP-text escaping (`\\` and `\n`).
func unescapeHelp(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func parseSampleLine(line string) (Sample, error) {
	smp := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return smp, fmt.Errorf("no value in %q", line)
	}
	if i == 0 {
		return smp, fmt.Errorf("missing metric name in %q", line)
	}
	smp.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return smp, err
		}
		smp.Labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return smp, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return smp, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	smp.Value = v
	return smp, nil
}

// parseLabels reads a `{k="v",...}` block starting at s[0] == '{',
// returning the index just past the closing brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("unterminated label block in %q", s)
		}
		key := strings.TrimRight(s[i:i+eq], " \t")
		i += eq + 1
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var val strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[i])
				default:
					// Unknown escape: keep the backslash so an
					// unrecognized sequence survives a round trip
					// verbatim instead of silently dropping a byte.
					val.WriteByte('\\')
					val.WriteByte(s[i])
				}
			} else {
				val.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // closing quote
		labels[key] = val.String()
	}
}

// matches reports whether the sample carries every given label pair
// (the sample may carry more, e.g. le).
func (s Sample) matches(name string, labels map[string]string) bool {
	if s.Name != name {
		return false
	}
	for k, v := range labels {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Value returns the first sample matching name and the given label
// subset.
func (s *Scrape) Value(name string, labels map[string]string) (float64, bool) {
	for _, smp := range s.Samples {
		if smp.matches(name, labels) {
			return smp.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample matching name and the given label subset.
func (s *Scrape) Sum(name string, labels map[string]string) float64 {
	total := 0.0
	for _, smp := range s.Samples {
		if smp.matches(name, labels) {
			total += smp.Value
		}
	}
	return total
}

// Quantile estimates the q-quantile of histogram name (its _bucket
// samples matching the given label subset), interpolating within the
// containing bucket exactly as Histogram.Quantile does. Series that
// share a bucket bound are merged by summing their cumulative counts,
// so a loose label subset aggregates across children (e.g. one apply
// latency over every session). The second result is false when the
// histogram is absent or empty.
func (s *Scrape) Quantile(name string, labels map[string]string, q float64) (float64, bool) {
	type bk struct {
		le  float64
		cum float64
	}
	merged := map[float64]float64{}
	for _, smp := range s.Samples {
		if !smp.matches(name+"_bucket", labels) {
			continue
		}
		leStr, ok := smp.Labels["le"]
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			if leStr == "+Inf" {
				le = inf()
			} else {
				continue
			}
		}
		merged[le] += smp.Value
	}
	if len(merged) == 0 {
		return 0, false
	}
	bks := make([]bk, 0, len(merged))
	for le, cum := range merged {
		bks = append(bks, bk{le: le, cum: cum})
	}
	sort.Slice(bks, func(i, j int) bool { return bks[i].le < bks[j].le })
	total := bks[len(bks)-1].cum
	if total == 0 {
		return 0, false
	}
	rank := q * total
	prevCum, prevLe := 0.0, 0.0
	for i, b := range bks {
		if b.cum >= rank && b.cum > prevCum {
			if isInf(b.le) {
				if i > 0 {
					return bks[i-1].le, true
				}
				return 0, true
			}
			frac := (rank - prevCum) / (b.cum - prevCum)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return prevLe + (b.le-prevLe)*frac, true
		}
		prevCum, prevLe = b.cum, b.le
	}
	last := bks[len(bks)-1].le
	if isInf(last) && len(bks) > 1 {
		last = bks[len(bks)-2].le
	}
	return last, true
}

func inf() float64         { return math.Inf(1) }
func isInf(v float64) bool { return math.IsInf(v, 1) }
