package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// colonNames returns the name: values of a YAML file that are plain
// (unquoted) scalars containing ": " or ending in ":". YAML reads such a
// value as a nested mapping, so the whole file fails to parse, and a
// workflow that does not parse never runs.
func colonNames(yml string) []string {
	var bad []string
	for _, line := range strings.Split(yml, "\n") {
		key := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		value, ok := strings.CutPrefix(key, "name:")
		if !ok {
			continue
		}
		value = strings.TrimSpace(value)
		if value == "" || strings.ContainsRune(`"'|>`, rune(value[0])) {
			continue
		}
		if i := strings.Index(value, " #"); i >= 0 {
			value = strings.TrimSpace(value[:i]) // a comment, not part of the scalar
		}
		if strings.Contains(value+" ", ": ") {
			bad = append(bad, value)
		}
	}
	return bad
}

func TestColonNames(t *testing.T) {
	for _, c := range []struct {
		line string
		bad  bool
	}{
		// The two step names that kept ci.yml from parsing.
		{"      - name: benchmark smoke (execution engine: matcher index + compiled dispatch)", true},
		{"      - name: benchmark smoke (page-load fast path: repeat visits + arena clones)", true},
		{`      - name: "benchmark smoke (execution engine: matcher index + compiled dispatch)"`, false},
		{"      - name: 'quoted: single'", false},
		{"  name: ends with a colon:", true},
		{"      - name: gofmt", false},
		{"      - name: a:b has no space after its colon", false},
		{"      - name: plain # comment: not part of the name", false},
		{"      - uses: actions/checkout@v4", false},
	} {
		if got := len(colonNames(c.line)) > 0; got != c.bad {
			t.Errorf("%q: flagged %v, want %v", c.line, got, c.bad)
		}
	}
}

// TestWorkflowNamesParse fails when a workflow under .github/workflows
// has a name: that YAML would not read as a plain string.
func TestWorkflowNamesParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no workflow files found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range colonNames(string(data)) {
			t.Errorf("%s: name %q holds an unquoted \": \"; quote it", p, name)
		}
	}
}
