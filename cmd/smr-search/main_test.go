package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExplainKeepsResults checks that -explain only adds the plan tree:
// the same flags with and without it must succeed and print the same
// result rows.
func TestExplainKeepsResults(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "smr-search")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-q", "wind", "-sort", "title", "-alpha", "0.5", "-limit", "3"}
	run := func(extra ...string) []string {
		t.Helper()
		cmd := exec.Command(bin, append(args, extra...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("smr-search %s: %v\n%s", strings.Join(append(args, extra...), " "), err, stderr.String())
		}
		return resultRows(string(out))
	}
	plain := run()
	explained := run("-explain")
	if len(plain) == 0 {
		t.Fatal("no result rows without -explain")
	}
	if strings.Join(plain, "\n") != strings.Join(explained, "\n") {
		t.Errorf("-explain changed the results:\nwithout:\n%s\nwith:\n%s",
			strings.Join(plain, "\n"), strings.Join(explained, "\n"))
	}
}

// resultRows returns the lines from the result table header to the end of
// the table.
func resultRows(out string) []string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "page ") {
			var rows []string
			for _, r := range lines[i:] {
				if strings.TrimSpace(r) == "" {
					break
				}
				rows = append(rows, r)
			}
			return rows
		}
	}
	return nil
}
