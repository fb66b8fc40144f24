package rankedaccess

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLivePaths fails when README.md, CONTRIBUTING.md or the
// verify skill names a ./cmd/<x> or internal/<x> path that is not a
// directory: a package that is deleted or renamed takes its recipes
// with it, in the commit that moves it.
func TestDocsNameLivePaths(t *testing.T) {
	named := regexp.MustCompile(`\./cmd/[\w-]+|internal/[\w-]+`)
	for _, doc := range []string{"README.md", "CONTRIBUTING.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range named.FindAllString(string(raw), -1) {
			if seen[p] {
				continue
			}
			seen[p] = true
			if fi, err := os.Stat(strings.TrimPrefix(p, "./")); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, p)
			}
		}
	}
}
