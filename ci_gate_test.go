package rankedaccess

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIGateRowsAreBenchmarkRows holds CI's bench-gate job to the
// benchmark it reads: every `.metrics["…"]` row its jq gate names must
// be a per-layer metric BENCHMARK.json declares. The gate already fails
// on a row the ladder does not print; this fails the rename at the
// commit that makes it, before CI runs.
func TestCIGateRowsAreBenchmarkRows(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range decl.PerLayer {
		declared[m.Name] = true
	}
	gated := regexp.MustCompile(`\.metrics\["([^"]+)"\]`).FindAllSubmatch(ci, -1)
	if len(gated) == 0 {
		t.Fatal(`ci.yml gates no .metrics["…"] row: the bench-gate job reads nothing off the ladder`)
	}
	for _, m := range gated {
		if name := string(m[1]); !declared[name] {
			t.Errorf("ci.yml gates on %q, which BENCHMARK.json's per_layer does not declare", name)
		}
	}
}

// TestCIRunPatternsNameTests holds every `-run` / `-fuzz` pattern in
// ci.yml to the tests it means to run: each alternative must match a
// Test… or Fuzz… function of the module. go test runs nothing, and
// passes, for a pattern that matches nothing, so a renamed or deleted
// test would otherwise drop out of its CI job silently.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go"):
			src, err := os.ReadFile(path)
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := regexp.MustCompile(`-(?:run|fuzz)[ =]'([^']*)'`).FindAllSubmatch(ci, -1)
	if len(patterns) == 0 {
		t.Fatal("ci.yml passes no -run or -fuzz pattern")
	}
	for _, m := range patterns {
		for _, alt := range strings.Split(string(m[1]), "|") {
			if alt == "^$" {
				continue // runs no test, on purpose
			}
			re, err := regexp.Compile(alt)
			if err != nil || !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml runs %q, which names no Test or Fuzz function (%v)", alt, err)
			}
		}
	}
}
