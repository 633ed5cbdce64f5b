package search

import (
	"errors"
	"testing"

	"repro/internal/query"
)

// FuzzDecodeCursorToken throws arbitrary byte strings at the cursor codec
// and its executor-side verifier. Invariants: neither ever panics; every
// rejection is a structured bad_cursor *query.Error; and a token that
// decodes at all still cannot pass decodeCursor unless its signature,
// sort and order all match — foreign cursors are rejected, never silently
// accepted.
func FuzzDecodeCursorToken(f *testing.F) {
	sig := CursorSignature("expr", string(SortRelevance), string(OrderDesc), "")
	good := EncodeCursorToken(cursorPayload{
		Sort: string(SortRelevance), Order: string(OrderDesc),
		Rel: 1.5, Rank: 0.25, Title: "Sensor:A", Sig: sig,
	})
	seeds := []string{
		good,
		EncodeCursorToken(cursorPayload{Sort: string(SortTitle), Order: string(OrderAsc), Sig: 1}),
		EncodeCursorToken(map[string]any{"s": "relevance", "o": "desc", "g": 0}),
		"", "not-base64!!", "AAAA", "eyJzIjoi", `{"s":"relevance"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, token string) {
		var p cursorPayload
		if err := DecodeCursorToken(token, &p); err != nil {
			var qe *query.Error
			if !errors.As(err, &qe) || qe.Code != "bad_cursor" {
				t.Fatalf("DecodeCursorToken error is not bad_cursor: %T %v", err, err)
			}
			// A malformed token must fail the full verifier the same way.
			if _, err2 := decodeCursor(token, sig, SortRelevance, OrderDesc); err2 == nil {
				t.Fatalf("decodeCursor accepted a token DecodeCursorToken rejected: %q", token)
			}
			return
		}

		// The token decoded. It may only pass verification if every bound
		// field matches; and against a foreign signature it must always be
		// rejected (the fuzzer cannot forge a 64-bit FNV preimage for the
		// arbitrary bind below, so acceptance would mean the check is gone).
		got, err := decodeCursor(token, p.Sig, SortKey(p.Sort), Order(p.Order))
		if err != nil {
			t.Fatalf("self-consistent cursor rejected: %v (token %q)", err, token)
		}
		if *got != p {
			t.Fatalf("decodeCursor altered the payload: %+v vs %+v", *got, p)
		}
		foreign := CursorSignature("some-other-expr", "title", "asc", "0.5")
		if p.Sig != foreign {
			if _, err := decodeCursor(token, foreign, SortKey(p.Sort), Order(p.Order)); err == nil {
				t.Fatalf("cursor bound to sig %d accepted under foreign sig %d", p.Sig, foreign)
			}
		}
	})
}
