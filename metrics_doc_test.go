package bulkgcd

// Doc parity: DESIGN.md section 5c's metric table and the obs help
// registry (populated by each engine package's init) must agree in both
// directions. A new metric without a doc row, or a doc row for a metric
// that no longer registers, fails here.

import (
	"os"
	"regexp"
	"strings"
	"testing"

	_ "bulkgcd/internal/attack"
	_ "bulkgcd/internal/batchgcd"
	_ "bulkgcd/internal/bulk"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/obs"
	_ "bulkgcd/internal/registry"
)

// designMetricNames extracts every backticked metric name from the 5c
// table rows, expanding the `<alg>` placeholder over gcd.Algorithms.
func designMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "## 5c.")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 5c")
	}
	rest := text[start:]
	if end := strings.Index(rest[1:], "\n## "); end >= 0 {
		rest = rest[:end+1]
	}
	token := regexp.MustCompile("`([a-z][a-z0-9_<>]*_[a-z0-9_<>]*)`")
	names := map[string]bool{}
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range token.FindAllStringSubmatch(line, -1) {
			name := m[1]
			if strings.Contains(name, "<alg>") {
				for _, alg := range gcd.Algorithms {
					names[strings.ReplaceAll(name, "<alg>", strings.ToLower(alg.String()))] = true
				}
				continue
			}
			names[name] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("no metric names parsed from the 5c table")
	}
	return names
}

func TestMetricsDocParity(t *testing.T) {
	doc := designMetricNames(t)
	registered := map[string]bool{}
	for _, name := range obs.HelpNames() {
		registered[name] = true
	}
	for name := range registered {
		if !doc[name] {
			t.Errorf("metric %s registers help but has no row in DESIGN.md section 5c", name)
		}
	}
	for name := range doc {
		if !registered[name] {
			t.Errorf("DESIGN.md section 5c documents %s but no package registers it", name)
		}
	}
}
