// Documentation checks: the repo's markdown must exist and its
// relative links must resolve. This runs in tier-1 AND as the CI docs
// job, so a renamed file or a dead link fails the build rather than
// rotting silently.
package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// requiredDocs are the documents the repository promises to have.
var requiredDocs = []string{
	"README.md",
	"docs/architecture.md",
	"docs/wal.md",
	"docs/observability.md",
	"docs/chaos.md",
	"ROADMAP.md",
	"CHANGES.md",
	"PAPERS.md",
}

// mdLink matches inline markdown links [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// docFiles returns every tracked markdown file at the repo root and
// under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, e.Name())
		}
	}
	sub, err := os.ReadDir("docs")
	if err == nil {
		for _, e := range sub {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
				files = append(files, filepath.Join("docs", e.Name()))
			}
		}
	}
	return files
}

// TestDocsExist: the promised documents are present and non-trivial.
func TestDocsExist(t *testing.T) {
	for _, p := range requiredDocs {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("required document %s: %v", p, err)
			continue
		}
		if st.Size() < 200 {
			t.Errorf("required document %s is %d bytes; suspiciously empty", p, st.Size())
		}
	}
}

// TestDocsLinks: every relative link in every markdown file resolves
// to an existing file or directory (anchors and external URLs are out
// of scope — no network in tests).
func TestDocsLinks(t *testing.T) {
	for _, doc := range docFiles(t) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(b), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"), strings.HasPrefix(target, "#"):
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q which does not resolve (%v)", doc, m[1], err)
			}
		}
	}
}

// TestDocsNameRealPackages: the README's layer map must not drift from
// the tree — every internal/<pkg> mentioned in README.md exists.
func TestDocsNameRealPackages(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("`internal/([a-z]+)`")
	seen := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(b), -1) {
		pkg := m[1]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		if _, err := os.Stat(filepath.Join("internal", pkg)); err != nil {
			t.Errorf("README names internal/%s which does not exist", pkg)
		}
	}
	if len(seen) < 10 {
		t.Errorf("README names only %d internal packages; the layer map looks gutted", len(seen))
	}
	// And the commands it documents must exist too.
	for _, cmd := range []string{"repro", "cdmasim", "cdmaserved", "verify"} {
		if !strings.Contains(string(b), cmd) {
			t.Errorf("README does not mention cmd/%s", cmd)
		}
	}
}

// metricReg matches a metric registration call — the catalog's source
// of truth. Label resolution happens at registration so the name is
// always the first string literal of the call.
var metricReg = regexp.MustCompile(`\.(?:Counter|Gauge|FloatGauge|Histogram)\(\s*"([a-z_][a-z0-9_]*)"`)

// registeredMetrics scans the serving, cluster and canary packages for
// metric registrations and maps each name to the files registering it.
func registeredMetrics(t *testing.T) map[string][]string {
	t.Helper()
	names := map[string][]string{}
	for _, dir := range []string{"internal/serve", "internal/cluster", "internal/canary"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			p := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range metricReg.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = append(names[m[1]], p)
			}
		}
	}
	if len(names) < 20 {
		t.Fatalf("found only %d registered metrics; the registration scan looks broken", len(names))
	}
	return names
}

// TestDocsMetricsCatalog: every metric the serving/cluster/canary code
// registers appears in docs/observability.md — the catalog must not
// drift when someone adds a series.
func TestDocsMetricsCatalog(t *testing.T) {
	catalog, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	for name, files := range registeredMetrics(t) {
		if !strings.Contains(string(catalog), "`"+name+"`") {
			t.Errorf("metric %s (registered in %s) is missing from docs/observability.md", name, files[0])
		}
	}
	// The synthetic fleet-level family is registered nowhere but must
	// stay documented with the rest.
	if !strings.Contains(string(catalog), "`cluster_member_up") {
		t.Error("docs/observability.md does not document cluster_member_up")
	}
}

// catalogRow matches the metric name that opens a markdown table row.
var catalogRow = regexp.MustCompile("^\\| `([a-z_][a-z0-9_]*)`")

// TestDocsCatalogMetricsRegistered is the reverse of
// TestDocsMetricsCatalog: every metric the "Metric catalog" section of
// docs/observability.md lists in a table row is registered by the
// serving, cluster or canary code, so the catalog cannot keep rows for
// series that no longer exist.
func TestDocsCatalogMetricsRegistered(t *testing.T) {
	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	names := registeredMetrics(t)
	in, rows := false, 0
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## Metric catalog"
			continue
		}
		m := catalogRow.FindStringSubmatch(line)
		if !in || m == nil {
			continue
		}
		rows++
		// Synthesized by the fleet merge, not registered by any member.
		if m[1] == "cluster_member_up" {
			continue
		}
		if _, ok := names[m[1]]; !ok {
			t.Errorf("docs/observability.md catalogs %s, which no code in internal/serve, internal/cluster or internal/canary registers", m[1])
		}
	}
	if rows < 20 {
		t.Fatalf("found only %d catalog rows; the section scan looks broken", rows)
	}
}
