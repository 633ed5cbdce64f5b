package server

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestDocsCoverRoutes checks docs/API.md documents every route of the
// route table with its method, as `METHOD /path` followed by the closing
// backtick, a query string or a path parameter — so adding an endpoint
// or changing its method without documenting it fails CI.
func TestDocsCoverRoutes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md missing: %v", err)
	}
	for _, rt := range routes {
		probe := regexp.MustCompile(regexp.QuoteMeta("`"+rt.Method+" "+rt.Pattern) + "[`?<]")
		if !probe.Match(raw) {
			t.Errorf("route `%s %s` not documented in docs/API.md", rt.Method, rt.Pattern)
		}
	}
}

// TestDocsLinksResolve checks that relative markdown links in the
// top-level documentation point at files that exist.
func TestDocsLinksResolve(t *testing.T) {
	root := repoRoot(t)
	linkRe := regexp.MustCompile(`\]\(([^)#]+)(#[^)]*)?\)`)
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", filepath.Join("docs", "API.md")} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "localhost") {
				continue // external URL
			}
			resolved := filepath.Join(root, filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %s, which does not exist", doc, target)
			}
		}
	}
}
