package rdf

import "testing"

// FuzzParseTripleLine drives the N-Triples line parser that ReadNTriples
// runs on every input line: ParseTripleLine never panics, and every triple
// it accepts, written back with Triple.String, parses to an equal triple.
// The checked-in corpus under testdata/fuzz holds lines built from the
// adversarial terms of TestMatchOrderMatchesNTriplesSort: escapes, control
// bytes, spaces and dots inside IRIs, empty blank labels and language tags.
func FuzzParseTripleLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		tp, err := ParseTripleLine(line)
		if err != nil {
			return
		}
		again, err := ParseTripleLine(tp.String())
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", tp.String(), line, err)
		}
		if again != tp {
			t.Fatalf("round trip changed the triple:\n%#v\n%#v\nline %q", tp, again, line)
		}
	})
}
