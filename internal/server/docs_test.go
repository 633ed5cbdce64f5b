package server

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
// backtick, a query string or a path parameter, and names each declared
// parameter in backticks in the route's section: the text from its
// "### `METHOD /path" heading to the next heading of that level or above.
// A route that takes the common search parameters points to their own
// section, which names them. So adding an endpoint or a parameter, or
// changing a method, without documenting it fails CI.
func TestDocsCoverRoutes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md missing: %v", err)
	}
	doc := string(raw)
	// section returns the text under the first heading matching re, up to
	// the next "## " or "### " heading.
	section := func(re string) string {
		loc := regexp.MustCompile("(?m)^" + re).FindStringIndex(doc)
		if loc == nil {
			return ""
		}
		rest := doc[loc[1]:]
		if end := regexp.MustCompile("(?m)^###? ").FindStringIndex(rest); end != nil {
			rest = rest[:end[0]]
		}
		return rest
	}
	common := section("## Common search parameters")
	for _, rt := range routes {
		probe := regexp.QuoteMeta("`"+rt.Method+" "+rt.Pattern) + "[`?<]"
		if !regexp.MustCompile(probe).MatchString(doc) {
			t.Errorf("route `%s %s` not documented in docs/API.md", rt.Method, rt.Pattern)
		}
		if len(rt.Params) == 0 {
			continue
		}
		sec := section("### " + probe)
		if sec == "" {
			t.Errorf("docs/API.md has no \"### `%s %s`\" section for its parameters", rt.Method, rt.Pattern)
			continue
		}
		searching := usesSearchParams(rt)
		if searching && !strings.Contains(strings.Join(strings.Fields(sec), " "), "common search parameters") {
			t.Errorf("the `%s %s` section does not point to the common search parameters", rt.Method, rt.Pattern)
		}
		for _, d := range rt.Params {
			in := sec
			if searching && slices.ContainsFunc(searchParams, func(c param) bool { return c.Name == d.Name }) {
				in = common
			}
			if !strings.Contains(in, "`"+d.Name+"`") {
				t.Errorf("parameter `%s` of `%s %s` not documented in its docs/API.md section", d.Name, rt.Method, rt.Pattern)
			}
		}
	}
}

// usesSearchParams reports whether rt declares the whole common search
// parameter set.
func usesSearchParams(rt route) bool {
	for _, c := range searchParams {
		if !slices.ContainsFunc(rt.Params, func(d param) bool { return d.Name == c.Name }) {
			return false
		}
	}
	return true
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
