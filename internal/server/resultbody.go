package server

import (
	"encoding/json"
	"maps"
	"math"
	"slices"
	"strconv"

	"repro/internal/search"
)

// The two search routes write their bodies in one pass into one buffer,
// byte for byte as encodeJSON encodes the routes' response structs (HTML
// escaped, keys of maps sorted, omitempty fields left out); the structs
// are the reference in resultbody_test.go.

// v1QueryBody encodes the POST /api/v1/query response: count, matched,
// results, facets when the request asked for them and there are any,
// nextCursor when set and the plan when the result carries one.
func v1QueryBody(res *search.ExecResult, facets bool, snippet func(string) string) ([]byte, error) {
	buf, err := openSearchBody(res, true, facets, snippet)
	if err != nil {
		return nil, err
	}
	if res.NextCursor != "" {
		buf = appendJSONString(append(buf, ",\n  \"nextCursor\": "...), res.NextCursor)
	}
	if res.Plan != nil {
		// The plan is one level deep, so it is indented as encodeJSON
		// indents a nested object.
		plan, err := json.MarshalIndent(res.Plan, "  ", "  ")
		if err != nil {
			return nil, err
		}
		buf = append(append(buf, ",\n  \"plan\": "...), plan...)
	}
	return append(buf, "\n}\n"...), nil
}

// searchBody encodes the legacy /api/search response: count, results,
// and matched and facets when the request asked for facets and they are
// not empty.
func searchBody(res *search.ExecResult, facets bool, snippet func(string) string) ([]byte, error) {
	buf, err := openSearchBody(res, facets && res.Matched != 0, facets, snippet)
	if err != nil {
		return nil, err
	}
	return append(buf, "\n}\n"...), nil
}

// openSearchBody writes a search body up to its facets, leaving the
// object open: count, matched when withMatched, the results, and the
// facets when withFacets and there are any.
func openSearchBody(res *search.ExecResult, withMatched, withFacets bool, snippet func(string) string) ([]byte, error) {
	// An upper estimate for short titles, values and floats, so the
	// buffer seldom grows.
	size := 128
	for _, r := range res.Results {
		size += 128 + len(r.Title)
		if len(r.Matched) > 0 {
			size += 32 + 48*len(r.Matched)
		}
		if snippet != nil {
			size += 192
		}
	}
	buf := append(make([]byte, 0, size), "{\n  \"count\": "...)
	buf = strconv.AppendInt(buf, int64(len(res.Results)), 10)
	if withMatched {
		buf = strconv.AppendInt(append(buf, ",\n  \"matched\": "...), int64(res.Matched), 10)
	}
	buf, err := appendResults(append(buf, ",\n  \"results\": "...), res.Results, snippet)
	if err != nil {
		return nil, err
	}
	if withFacets && len(res.Facets) > 0 {
		buf = appendFacets(append(buf, ",\n  \"facets\": "...), res.Facets)
	}
	return buf, nil
}

// appendResults appends the results array, null when there are no
// results: per result its title, relevance and rank, its matched values
// keyed in sorted order unless there are none, and its snippet when
// snippet is not nil and gives one.
func appendResults(buf []byte, rs []search.Result, snippet func(string) string) ([]byte, error) {
	if len(rs) == 0 {
		return append(buf, "null"...), nil
	}
	var keys []string
	var err error
	buf = append(buf, '[')
	for i, r := range rs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(append(buf, "\n    {\n      \"title\": "...), r.Title)
		if buf, err = appendJSONFloat(append(buf, ",\n      \"relevance\": "...), r.Relevance); err != nil {
			return nil, err
		}
		if buf, err = appendJSONFloat(append(buf, ",\n      \"rank\": "...), r.Rank); err != nil {
			return nil, err
		}
		if len(r.Matched) > 0 {
			keys = slices.AppendSeq(keys[:0], maps.Keys(r.Matched))
			slices.Sort(keys)
			buf = append(buf, ",\n      \"matched\": {"...)
			for j, k := range keys {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = appendJSONString(append(buf, "\n        "...), k)
				buf = appendJSONString(append(buf, ": "...), r.Matched[k])
			}
			buf = append(buf, "\n      }"...)
		}
		if snippet != nil {
			if s := snippet(r.Title); s != "" {
				buf = appendJSONString(append(buf, ",\n      \"snippet\": "...), s)
			}
		}
		buf = append(buf, "\n    }"...)
	}
	return append(buf, "\n  ]"...), nil
}

// appendFacets appends a non-empty facets object, properties and values
// in sorted order: a property's counts are null when nil and {} when
// empty.
func appendFacets(buf []byte, facets map[string]map[string]int) []byte {
	buf = append(buf, '{')
	for i, prop := range slices.Sorted(maps.Keys(facets)) {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(append(buf, "\n    "...), prop)
		counts := facets[prop]
		switch {
		case counts == nil:
			buf = append(buf, ": null"...)
		case len(counts) == 0:
			buf = append(buf, ": {}"...)
		default:
			buf = append(buf, ": {"...)
			for j, v := range slices.Sorted(maps.Keys(counts)) {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = appendJSONString(append(buf, "\n      "...), v)
				buf = strconv.AppendInt(append(buf, ": "...), int64(counts[v]), 10)
			}
			buf = append(buf, "\n    }"...)
		}
	}
	return append(buf, "\n  }"...)
}

// appendJSONFloat appends f as encoding/json encodes a float64: the
// shortest decimal that reads back as f, in 'f' form, or in 'e' form
// when |f| is below 1e-6 or at least 1e21, with a one-digit negative
// exponent written without its leading zero (1e-7, not 1e-07). A NaN or
// an infinity is the error encoding/json reports for it.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}
