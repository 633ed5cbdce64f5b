// Package search implements the full-text half of the advanced search
// interface: an inverted index with TF-IDF scoring over page text and
// annotations, prefix-trie autocomplete for the query box, faceted counts
// for the dynamic drop-downs, and the fielded advanced-query shape
// (keyword + property filters + namespace + sort-by/order-by) that the
// paper's query interface exposes.
package search

import (
	"strings"
	"unicode"
)

// stopwords trimmed to the terms that dominate wiki prose; small on purpose
// (sensor metadata is terse, aggressive stopping hurts recall).
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true, "in": true,
	"is": true, "it": true, "of": true, "on": true, "or": true, "that": true,
	"the": true, "to": true, "was": true, "with": true,
}

// Tokenize lower-cases and splits text into index terms, dropping stopwords
// and single-character fragments. Digits are kept: sensor names embed them.
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len(tok) < 2 || stopwords[tok] {
			return
		}
		out = append(out, tok)
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}
