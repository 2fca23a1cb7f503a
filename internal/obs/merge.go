package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MemberUpFamily is the synthetic per-member liveness gauge Merge adds
// to every merged exposition: 1 for each member whose scrape was
// folded in, 0 for each member listed in MergeOptions.Down.
const MemberUpFamily = "cluster_member_up"

// MemberScrape is one member's parsed exposition tagged with its
// cluster identity.
type MemberScrape struct {
	Member string
	Scrape *Scrape
}

// MergeOptions steer how Merge folds member scrapes together.
type MergeOptions struct {
	// PerMember names families that stay per-source: each series gains
	// a member="<id>" label instead of being aggregated. Use it for
	// gauges that describe the member itself (cluster_members_alive),
	// where a fleet max would erase the interesting disagreement.
	PerMember map[string]bool
	// Down lists members whose scrape failed; they appear in the merge
	// only as cluster_member_up 0.
	Down []string
}

type mergeRule int

const (
	ruleSum mergeRule = iota
	ruleMax
	rulePerMember
)

// Merge folds per-member scrapes into one fleet exposition. Counters
// and histogram series (_bucket/_sum/_count, bucket-wise by le) are
// summed across members; gauges take the max; families named in
// PerMember keep one series per member under an added member label.
// Untyped samples fall back to naming conventions
// (_total/_bucket/_sum/_count ⇒ sum, else max). A synthetic
// cluster_member_up gauge records which members answered.
func Merge(members []MemberScrape, opts MergeOptions) *Scrape {
	out := &Scrape{Families: map[string]Family{}}
	for _, m := range members {
		if m.Scrape == nil {
			continue
		}
		for name, f := range m.Scrape.Families {
			if _, ok := out.Families[name]; !ok {
				out.Families[name] = f
			}
		}
	}

	type acc struct {
		smp  Sample
		rule mergeRule
	}
	accs := map[string]*acc{}
	var order []string
	for _, m := range members {
		if m.Scrape == nil {
			continue
		}
		for _, smp := range m.Scrape.Samples {
			fam := baseFamily(smp.Name, out.Families)
			rule := mergeRuleFor(fam, smp.Name, out.Families, opts)
			labels := make(map[string]string, len(smp.Labels)+1)
			for k, v := range smp.Labels {
				labels[k] = v
			}
			if rule == rulePerMember {
				labels["member"] = m.Member
			}
			key := smp.Name + "\x00" + canonLabels(labels)
			a := accs[key]
			if a == nil {
				accs[key] = &acc{smp: Sample{Name: smp.Name, Labels: labels, Value: smp.Value}, rule: rule}
				order = append(order, key)
				continue
			}
			switch a.rule {
			case ruleSum:
				a.smp.Value += smp.Value
			case ruleMax:
				if smp.Value > a.smp.Value {
					a.smp.Value = smp.Value
				}
			case rulePerMember:
				// Same member emitted the series twice — last wins.
				a.smp.Value = smp.Value
			}
		}
	}

	out.Families[MemberUpFamily] = Family{
		Help: "1 if the member answered the fleet scrape, 0 if it was down or unreachable",
		Type: "gauge",
	}
	for _, m := range members {
		if m.Scrape == nil {
			continue
		}
		out.Samples = append(out.Samples, Sample{
			Name: MemberUpFamily, Labels: map[string]string{"member": m.Member}, Value: 1,
		})
	}
	for _, id := range opts.Down {
		out.Samples = append(out.Samples, Sample{
			Name: MemberUpFamily, Labels: map[string]string{"member": id}, Value: 0,
		})
	}
	for _, key := range order {
		out.Samples = append(out.Samples, accs[key].smp)
	}
	return out
}

// baseFamily maps a sample name to its family: histogram component
// suffixes resolve to the announced histogram family, everything else
// is its own family.
func baseFamily(name string, fams map[string]Family) string {
	if _, ok := fams[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, suf); ok {
			if f, ok := fams[b]; ok && f.Type == "histogram" {
				return b
			}
		}
	}
	return name
}

func mergeRuleFor(fam, name string, fams map[string]Family, opts MergeOptions) mergeRule {
	if opts.PerMember[fam] {
		return rulePerMember
	}
	switch fams[fam].Type {
	case "counter", "histogram":
		return ruleSum
	case "gauge":
		return ruleMax
	}
	// Untyped: fall back on naming conventions.
	switch {
	case strings.HasSuffix(name, "_total"), strings.HasSuffix(name, "_bucket"),
		strings.HasSuffix(name, "_sum"), strings.HasSuffix(name, "_count"):
		return ruleSum
	}
	return ruleMax
}

// canonLabels renders a label map in sorted key order with exposition
// escaping — a canonical series identity.
func canonLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		escapeLabel(&b, labels[k])
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
}

// WriteText renders the scrape in text exposition format 0.0.4, for a
// registry's GET /metrics and the fleet's merged /cluster/metrics
// alike: families in sorted name order with their HELP/TYPE comments
// (when known), series in sorted label order (labels by key), histogram
// buckets by ascending le. Parsing the output reproduces the sample set
// exactly — the round-trip contract the fuzz test holds the pair to.
func (s *Scrape) WriteText(w io.Writer) error {
	byFam := map[string][]Sample{}
	var famOrder []string
	for _, smp := range s.Samples {
		fam := baseFamily(smp.Name, s.Families)
		if _, ok := byFam[fam]; !ok {
			famOrder = append(famOrder, fam)
		}
		byFam[fam] = append(byFam[fam], smp)
	}
	sort.Strings(famOrder)

	var b []byte
	for _, fam := range famOrder {
		meta, hasMeta := s.Families[fam]
		if hasMeta {
			b = append(b, "# HELP "...)
			b = append(b, fam...)
			b = append(b, ' ')
			b = appendEscapedHelp(b, meta.Help)
			b = append(b, "\n# TYPE "...)
			b = append(b, fam...)
			b = append(b, ' ')
			typ := meta.Type
			if typ == "" {
				typ = "untyped"
			}
			b = append(b, typ...)
			b = append(b, '\n')
		}
		smps := byFam[fam]
		sort.SliceStable(smps, func(i, j int) bool {
			if smps[i].Name != smps[j].Name {
				return smps[i].Name < smps[j].Name
			}
			li, lj := canonLabelsNoLe(smps[i].Labels), canonLabelsNoLe(smps[j].Labels)
			if li != lj {
				return li < lj
			}
			return leValue(smps[i].Labels) < leValue(smps[j].Labels)
		})
		for _, smp := range smps {
			b = append(b, smp.Name...)
			if lbl := canonLabels(smp.Labels); lbl != "" {
				b = append(b, '{')
				b = append(b, lbl...)
				b = append(b, '}')
			}
			b = append(b, ' ')
			b = appendValue(b, smp.Value)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

func canonLabelsNoLe(labels map[string]string) string {
	if _, ok := labels["le"]; !ok {
		return canonLabels(labels)
	}
	trimmed := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != "le" {
			trimmed[k] = v
		}
	}
	return canonLabels(trimmed)
}

func leValue(labels map[string]string) float64 {
	le, ok := labels["le"]
	if !ok {
		return math.Inf(-1)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return math.Inf(1)
	}
	return v
}

// appendValue renders a sample value the way the exposition format
// expects: an integral value below 2^53 as an integer (a count of
// 1000000 reads 1000000, not 1e+06), anything else as the shortest
// round-trippable float, with Inf and NaN spelled +Inf/-Inf/NaN.
// Negative zero keeps its sign through the float path.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case v == math.Trunc(v) && math.Abs(v) < 1<<53 && !(v == 0 && math.Signbit(v)):
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendEscapedHelp renders HELP text with exposition-format escaping
// (`\\` and `\n`) — a newline in a help string must not fabricate a
// sample line.
func appendEscapedHelp(b []byte, help string) []byte {
	for i := 0; i < len(help); i++ {
		switch help[i] {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, help[i])
		}
	}
	return b
}
