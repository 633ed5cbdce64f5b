package server

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"

	"repro/internal/viz"
)

var homeTmpl = template.Must(template.New("home").Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Sensor Metadata Search</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 70em; }
input, select { padding: 4px; margin-right: 6px; }
table.results { border-collapse: collapse; margin-top: 1em; }
table.results th, table.results td { border: 1px solid #ccc; padding: 4px 8px; }
.hint { color: #777; font-size: 0.85em; }
.tagcloud span { margin-right: 0.6em; }
nav a { margin-right: 1em; }
</style>
</head>
<body>
<h1>Advanced Sensor Metadata Search</h1>
<nav>
<a href="/viz/graph.svg">association graph</a>
<a href="/viz/hypergraph.svg">hypergraph</a>
<a href="/viz/tagcloud.html">tag cloud</a>
<a href="/viz/taggraph.svg">tag cliques</a>
</nav>
<form action="/" method="GET">
<input name="q" size="30" placeholder="keywords" value="{{.Keywords}}">
<select name="namespace">
<option value="">all namespaces</option>
{{range .Namespaces}}<option value="{{.}}" {{if eq . $.Namespace}}selected{{end}}>{{.}}</option>{{end}}
</select>
<select name="sort">
<option value="relevance">relevance</option>
<option value="title" {{if eq .Sort "title"}}selected{{end}}>title</option>
<option value="rank" {{if eq .Sort "rank"}}selected{{end}}>rank</option>
</select>
<input type="submit" value="Search">
</form>
<p class="hint">Property filters via the API: /api/search?filter=measures:eq:wind+speed — properties: {{.PropertyHint}}</p>
{{if .HasQuery}}
<h2>{{.Count}} result(s)</h2>
{{.Table}}
{{if .Recommendations}}
<h3>Recommended pages</h3>
<ul>
{{range .Recommendations}}<li><a href="/page/{{.}}">{{.}}</a></li>{{end}}
</ul>
{{end}}
{{end}}
</body>
</html>
`))

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request, p params) {
	rs, q, err := s.runSearch(p)
	if err != nil {
		writeV1QueryError(w, err)
		return
	}
	props, _ := s.sys.Repo.Properties()
	if len(props) > 8 {
		props = props[:8]
	}

	// Namespaces present in the corpus, for the drop-down.
	nsSet := map[string]bool{}
	for _, t := range s.sys.Repo.Wiki.Titles() {
		if i := strings.IndexByte(t, ':'); i > 0 {
			nsSet[t[:i]] = true
		}
	}
	var namespaces []string
	for ns := range nsSet {
		namespaces = append(namespaces, ns)
	}
	sort.Strings(namespaces)

	hasQuery := p.has("q") || p.has("filter") || p.has("namespace")

	var tableHTML template.HTML
	var recTitles []string
	if hasQuery {
		rows := make([][]string, len(rs))
		var seeds []string
		for i, res := range rs {
			rows[i] = []string{
				res.Title,
				fmt.Sprintf("%.4f", res.Relevance),
				fmt.Sprintf("%.6f", res.Rank),
			}
			if i < 5 {
				seeds = append(seeds, res.Title)
			}
		}
		tableHTML = template.HTML(viz.HTMLTable([]string{"page", "relevance", "rank"}, rows))
		for _, rec := range s.sys.Recommend(seeds, q.User, 5) {
			recTitles = append(recTitles, rec.Title)
		}
	}

	data := struct {
		Keywords        string
		Namespace       string
		Sort            string
		Namespaces      []string
		PropertyHint    string
		HasQuery        bool
		Count           int
		Table           template.HTML
		Recommendations []string
	}{
		Keywords:        q.Keywords,
		Namespace:       q.Namespace,
		Sort:            string(q.SortBy),
		Namespaces:      namespaces,
		PropertyHint:    strings.Join(props, ", "),
		HasQuery:        hasQuery,
		Count:           len(rs),
		Table:           tableHTML,
		Recommendations: recTitles,
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := homeTmpl.Execute(w, data); err != nil {
		httpError(w, http.StatusInternalServerError, "template: %v", err)
	}
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html>
<head><meta charset="utf-8"><title>{{.Title}}</title>
<style>body { font-family: sans-serif; margin: 2em; max-width: 60em; }</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p><a href="/">&larr; search</a> | rank score: {{printf "%.6f" .Rank}}</p>
<pre>{{.Text}}</pre>
<h2>Annotations</h2>
<table border="1" cellpadding="4" style="border-collapse:collapse">
<tr><th>property</th><th>value</th></tr>
{{range .Annotations}}<tr><td>{{.Property}}</td><td>{{.Value}}</td></tr>{{end}}
</table>
{{if .Tags}}<h2>Tags</h2><p>{{range .Tags}}<span>{{.}}</span> {{end}}</p>{{end}}
{{if .Related}}<h2>Related pages</h2>
<ul>{{range .Related}}<li><a href="/page/{{.}}">{{.}}</a></li>{{end}}</ul>{{end}}
</body>
</html>
`))

func (s *Server) handlePage(w http.ResponseWriter, r *http.Request, p params) {
	title := strings.TrimPrefix(r.URL.Path, "/page/")
	user := p.str("user")
	if !s.sys.Repo.ACL.CanRead(user, title) {
		httpError(w, http.StatusForbidden, "page: access denied")
		return
	}
	page, ok := s.sys.Repo.Wiki.Get(title)
	if !ok {
		httpError(w, http.StatusNotFound, "page: %s not found", title)
		return
	}
	tags, _ := s.sys.Repo.PageTags(title)
	var related []string
	for _, rec := range s.sys.Recommend([]string{title}, user, 5) {
		related = append(related, rec.Title)
	}
	data := struct {
		Title       string
		Rank        float64
		Text        string
		Annotations []struct{ Property, Value string }
		Tags        []string
		Related     []string
	}{
		Title:   page.Title.String(),
		Rank:    s.sys.Ranker.Score(page.Title.String()),
		Text:    page.Text(),
		Tags:    tags,
		Related: related,
	}
	for _, a := range page.Annotations {
		data.Annotations = append(data.Annotations, struct{ Property, Value string }{a.Property, a.Value})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(w, data); err != nil {
		httpError(w, http.StatusInternalServerError, "template: %v", err)
	}
}
