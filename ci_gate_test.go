package rankedaccess

import (
	"encoding/json"
	"os"
	"regexp"
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
