package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	sensormeta "repro"
	"repro/internal/geo"
	"repro/internal/search"
	"repro/internal/tagging"
	"repro/internal/viz"
)

// check compares one response with the answer the System gives for the
// same request at the same state. A non-200 status, a body that does not
// decode, or any difference is an error.
func check(sys *sensormeta.System, o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", o.method, o.path, status, body)
	}
	switch o.class {
	case clQuery, clVisible:
		return checkQuery(sys, o, body)
	case clAutocomplete:
		var got []search.Completion
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return same(got, sys.Autocomplete(o.prefix, 10))
	case clChart:
		res, err := sys.Query(o.expr, search.ExecOptions{Facets: []string{o.prop}, CountOnly: true})
		if err != nil {
			return err
		}
		want := viz.BarChart(fmt.Sprintf("%s over %d result(s)", o.prop, res.Matched),
			viz.DataFromCounts(res.Facets[o.prop]), 640, 360)
		return sameBytes(body, want)
	case clMap:
		rs, err := sys.Search(o.legacy)
		if err != nil {
			return err
		}
		want := viz.MapSVG(geo.ClusterMarkers(sys.Markers(rs), 0.05), 800, 500)
		return sameBytes(body, want)
	case clTagCloud:
		var got tagging.Cloud
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := sys.TagCloud(tagging.CloudOptions{UsePivot: true, MinFrequency: 20})
		if err != nil {
			return err
		}
		return same(&got, want)
	case clSQL:
		var got sensormeta.SQLResult
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := sys.QuerySQL(o.sql)
		if err != nil {
			return err
		}
		return same(&got, want)
	case clSPARQL:
		var got struct {
			Vars []string            `json:"vars"`
			Rows []map[string]string `json:"rows"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		res, err := sys.QuerySPARQL(o.sparql)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got.Vars, res.Vars) || len(got.Rows) != len(res.Rows) {
			return fmt.Errorf("sparql: %d rows %v, want %d rows %v", len(got.Rows), got.Vars, len(res.Rows), res.Vars)
		}
		for i, b := range res.Rows {
			for k, t := range b {
				if got.Rows[i][k] != t.Value {
					return fmt.Errorf("sparql: row %d ?%s = %q, want %q", i, k, got.Rows[i][k], t.Value)
				}
			}
		}
		return nil
	case clCombined:
		var got struct {
			Hint       string     `json:"hint"`
			Columns    []string   `json:"columns"`
			Rows       [][]string `json:"rows"`
			NextCursor string     `json:"nextCursor"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		res, err := sys.QueryCombined(o.comb)
		if err != nil {
			return err
		}
		cols := make([]string, len(res.Columns))
		for i, c := range res.Columns {
			cols[i] = c.Name
		}
		if got.Hint != string(res.Hint) || !reflect.DeepEqual(got.Columns, cols) || got.NextCursor != res.NextCursor {
			return fmt.Errorf("combined: hint %q columns %v, want %q %v", got.Hint, got.Columns, res.Hint, cols)
		}
		return same(got.Rows, res.Rows)
	case clRefresh:
		return sameBytes(bytes.TrimSpace(body), `{
  "status": "ok"
}`)
	}
	return fmt.Errorf("no check for class %q", o.class)
}

// checkQuery compares a /api/v1/query response with System.Query: count,
// matched-set size, result titles in order, and facets when requested. A
// read-your-write read must also find the page carrying the written
// revision.
func checkQuery(sys *sensormeta.System, o *op, body []byte) error {
	var got struct {
		Count   int `json:"count"`
		Matched int `json:"matched"`
		Results []struct {
			Title string `json:"title"`
		} `json:"results"`
		Facets map[string]map[string]int `json:"facets"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want, err := sys.Query(o.expr, o.opts)
	if err != nil {
		return err
	}
	if got.Count != len(want.Results) || got.Matched != want.Matched || len(got.Results) != len(want.Results) {
		return fmt.Errorf("query %s: count %d matched %d, want %d %d", o.body, got.Count, got.Matched, len(want.Results), want.Matched)
	}
	for i, r := range want.Results {
		if got.Results[i].Title != r.Title {
			return fmt.Errorf("query %s: result %d = %q, want %q", o.body, i, got.Results[i].Title, r.Title)
		}
	}
	if len(o.opts.Facets) > 0 {
		if err := same(got.Facets, want.Facets); err != nil {
			return err
		}
	}
	if o.class == clVisible && (len(got.Results) != 1 || got.Results[0].Title != o.want) {
		return fmt.Errorf("written revision of %s not visible: %d results", o.want, len(got.Results))
	}
	return nil
}

// same compares two values by their JSON encodings.
func same(got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("response differs from the System's answer:\n got %.300s\nwant %.300s", g, w)
	}
	return nil
}

func sameBytes(got []byte, want string) error {
	if string(got) != want {
		return fmt.Errorf("response differs from the System's answer:\n got %.300s\nwant %.300s", got, want)
	}
	return nil
}

// checkWrite checks a batch-write acknowledgement: every page of the batch,
// in order, each at its expected revision count.
func checkWrite(o *op, status int, body []byte, written map[string]int) error {
	if status != http.StatusOK {
		return fmt.Errorf("batch write: status %d: %.200s", status, body)
	}
	var got struct {
		Count int `json:"count"`
		Pages []struct {
			Title     string `json:"title"`
			Revisions int    `json:"revisions"`
		} `json:"pages"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Count != len(o.writes) || len(got.Pages) != len(o.writes) {
		return fmt.Errorf("batch write: %d pages acknowledged, want %d", got.Count, len(o.writes))
	}
	for i, w := range o.writes {
		if got.Pages[i].Title != w.Title || got.Pages[i].Revisions != written[w.Title] {
			return fmt.Errorf("batch write: page %d = %s rev %d, want %s rev %d",
				i, got.Pages[i].Title, got.Pages[i].Revisions, w.Title, written[w.Title])
		}
	}
	return nil
}
