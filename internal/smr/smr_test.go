package smr

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wiki"
)

func newRepo(t *testing.T) *Repository {
	t.Helper()
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func put(t *testing.T, r *Repository, title, text string) {
	t.Helper()
	if _, err := r.PutPage(title, "tester", text, ""); err != nil {
		t.Fatalf("PutPage(%s): %v", title, err)
	}
}

// seedRepo creates the fixture used across SMR tests.
func seedRepo(t *testing.T) *Repository {
	r := newRepo(t)
	put(t, r, "Fieldsite:Davos", "[[altitude::1560]] [[canton::GR]] [[Category:Fieldsites]]")
	put(t, r, "Fieldsite:Wannengrat", "[[altitude::2440]] [[canton::GR]] [[Category:Fieldsites]]")
	put(t, r, "Deployment:SnowStudy", "[[locatedIn::Fieldsite:Davos]] [[operatedBy::SLF]] see [[Fieldsite:Davos]]")
	put(t, r, "Sensor:Wind-01", "[[partOf::Deployment:SnowStudy]] [[measures::wind speed]] [[samplingRate::10]]")
	put(t, r, "Sensor:Temp-01", "[[partOf::Deployment:SnowStudy]] [[measures::temperature]] [[samplingRate::1]]")
	return r
}

func TestPutPageProjectsToRelational(t *testing.T) {
	r := seedRepo(t)
	rs, err := r.QuerySQL("SELECT COUNT(*) FROM pages")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int64() != 5 {
		t.Errorf("pages = %v, want 5", rs.Rows[0][0])
	}
	rs, err = r.QuerySQL("SELECT value FROM annotations WHERE page = 'Fieldsite:Davos' AND property = 'altitude'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "1560" {
		t.Errorf("altitude annotation = %v", rs.Rows)
	}
	// Numeric shadow column filled for numeric values.
	rs, err = r.QuerySQL("SELECT COUNT(*) FROM annotations WHERE numeric > 2000")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int64() != 1 {
		t.Errorf("numeric annotations > 2000 = %v", rs.Rows[0][0])
	}
}

func TestPutPageProjectsToRDF(t *testing.T) {
	r := seedRepo(t)
	res, err := r.QuerySPARQL(`SELECT ?s WHERE { ?s <smr://prop/locatedin> <smr://page/Fieldsite:Davos> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "smr://page/Deployment:SnowStudy" {
		t.Errorf("rows = %v", res.Rows)
	}
	// Numeric filter through SPARQL.
	res, err = r.QuerySPARQL(`SELECT ?s WHERE { ?s <smr://prop/altitude> ?a . FILTER (?a > 2000) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "smr://page/Fieldsite:Wannengrat" {
		t.Errorf("altitude rows = %v", res.Rows)
	}
}

func TestCombinedSQLAndSPARQL(t *testing.T) {
	// The paper's query path: SPARQL narrows by graph structure, SQL
	// aggregates attributes of the survivors.
	r := seedRepo(t)
	res, err := r.QuerySPARQL(`SELECT ?s WHERE { ?s <smr://prop/partof> <smr://page/Deployment:SnowStudy> } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	var titles []string
	for _, row := range res.Rows {
		title, ok := TitleFromIRI(row["s"])
		if !ok {
			t.Fatalf("non-page subject %v", row["s"])
		}
		titles = append(titles, title)
	}
	if len(titles) != 2 {
		t.Fatalf("sensors = %v", titles)
	}
	var quoted []string
	for _, title := range titles {
		quoted = append(quoted, "'"+title+"'")
	}
	rs, err := r.QuerySQL("SELECT AVG(numeric) FROM annotations WHERE property = 'samplingrate' AND page IN (" +
		strings.Join(quoted, ", ") + ")")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].Float64(); got != 5.5 {
		t.Errorf("avg sampling rate = %v, want 5.5", got)
	}
}

func TestRevisionUpdateReplacesProjections(t *testing.T) {
	r := seedRepo(t)
	put(t, r, "Sensor:Wind-01", "[[partOf::Deployment:SnowStudy]] [[measures::gust speed]]")
	rs, _ := r.QuerySQL("SELECT value FROM annotations WHERE page = 'Sensor:Wind-01' AND property = 'measures'")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "gust speed" {
		t.Errorf("stale annotations: %v", rs.Rows)
	}
	res, _ := r.QuerySPARQL(`SELECT ?o WHERE { <smr://page/Sensor:Wind-01> <smr://prop/measures> ?o }`)
	if len(res.Rows) != 1 || res.Rows[0]["o"].Value != "gust speed" {
		t.Errorf("stale RDF: %v", res.Rows)
	}
	// samplingRate annotation from revision 1 must be gone everywhere.
	rs, _ = r.QuerySQL("SELECT COUNT(*) FROM annotations WHERE page = 'Sensor:Wind-01' AND property = 'samplingrate'")
	if rs.Rows[0][0].Int64() != 0 {
		t.Error("old annotation survived revision")
	}
	// Revision history is preserved.
	p, _ := r.Wiki.Get("Sensor:Wind-01")
	if len(p.Revisions) != 2 {
		t.Errorf("revisions = %d, want 2", len(p.Revisions))
	}
}

func TestDeletePage(t *testing.T) {
	r := seedRepo(t)
	if ok, err := r.DeletePage("Sensor:Wind-01"); !ok || err != nil {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	if ok, err := r.DeletePage("Sensor:Wind-01"); ok || err != nil {
		t.Errorf("double delete = %v, %v", ok, err)
	}
	rs, _ := r.QuerySQL("SELECT COUNT(*) FROM annotations WHERE page = 'Sensor:Wind-01'")
	if rs.Rows[0][0].Int64() != 0 {
		t.Error("annotations survived page delete")
	}
	res, _ := r.QuerySPARQL(`SELECT ?p WHERE { <smr://page/Sensor:Wind-01> ?p ?o }`)
	if len(res.Rows) != 0 {
		t.Error("RDF survived page delete")
	}
}

func TestLinkGraphDoubleStructure(t *testing.T) {
	r := seedRepo(t)
	g := r.LinkGraph()
	hasEdge := func(from, to string, kind graph.LinkKind) bool {
		fi, okFrom := g.Index(from)
		ti, okTo := g.Index(to)
		return okFrom && okTo && slices.Contains(g.Edges(), graph.Edge{From: fi, To: ti, Kind: kind})
	}
	// Deployment:SnowStudy --semantic--> Fieldsite:Davos (locatedIn) and
	// --page--> Fieldsite:Davos (see link).
	if !hasEdge("Deployment:SnowStudy", "Fieldsite:Davos", graph.SemanticLink) {
		t.Error("semantic link missing")
	}
	if !hasEdge("Deployment:SnowStudy", "Fieldsite:Davos", graph.PageLink) {
		t.Error("page link missing")
	}
	if !hasEdge("Sensor:Wind-01", "Deployment:SnowStudy", graph.SemanticLink) {
		t.Error("partOf semantic link missing")
	}
	// Literal-valued annotations must not create edges.
	if _, ok := g.Index("wind speed"); ok {
		t.Error("literal annotation value became a node")
	}
	// Fieldsite pages have no out-links: dangling.
	di, _ := g.Index("Fieldsite:Davos")
	if g.OutDegree(di) != 0 {
		t.Error("Fieldsite:Davos should be dangling")
	}
}

func TestPropertiesAndValuesForDropdowns(t *testing.T) {
	r := seedRepo(t)
	props, err := r.Properties()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"altitude": true, "canton": true, "locatedin": true,
		"operatedby": true, "partof": true, "measures": true, "samplingrate": true}
	if len(props) != len(want) {
		t.Errorf("properties = %v", props)
	}
	for _, p := range props {
		if !want[p] {
			t.Errorf("unexpected property %q", p)
		}
	}
	vals, err := r.PropertyValues("canton")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != "GR" {
		t.Errorf("canton values = %v", vals)
	}
	// Case-insensitive property name.
	vals, _ = r.PropertyValues("MEASURES")
	if len(vals) != 2 {
		t.Errorf("measures values = %v", vals)
	}
}

func TestTags(t *testing.T) {
	r := seedRepo(t)
	if err := r.AddTag("Sensor:Wind-01", "Wind", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTag("Sensor:Wind-01", "alpine", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTag("Sensor:Temp-01", "wind", "carol"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTag("Missing:Page", "x", "dave"); err == nil {
		t.Error("tagging missing page accepted")
	}
	tags, err := r.PageTags("Sensor:Wind-01")
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 2 || tags[0] != "alpine" || tags[1] != "wind" {
		t.Errorf("page tags = %v", tags)
	}
	if tags, _ := r.PageTags("Sensor:Temp-01"); len(tags) != 1 || tags[0] != "wind" {
		t.Errorf("Sensor:Temp-01 tags = %v", tags)
	}
}

func TestACL(t *testing.T) {
	acl := NewACL()
	// Anonymous policy: read everything.
	if !acl.CanRead("anyone", "Sensor:X") {
		t.Error("default anon read denied")
	}
	acl.SetAnonymousAccess(false)
	if acl.CanRead("anyone", "Sensor:X") {
		t.Error("locked anon read allowed")
	}
	acl.Grant("alice", wiki.NamespaceSensor)
	if !acl.CanRead("alice", "Sensor:X") {
		t.Error("granted namespace denied")
	}
	if acl.CanRead("alice", "Fieldsite:Y") {
		t.Error("ungranted namespace allowed")
	}
	acl.DenyPage("alice", "Sensor:Secret")
	if acl.CanRead("alice", "Sensor:Secret") {
		t.Error("denied page still readable")
	}
	// bob has no grants, so the locked anon policy applies to him.
	if acl.CanRead("bob", "Fieldsite:B") {
		t.Error("locked anon read allowed for a user without grants")
	}
	acl.Grant("bob", wiki.NamespaceFieldsite)
	if !acl.CanRead("bob", "Fieldsite:B") || acl.CanRead("bob", "Sensor:A") {
		t.Error("bob's Fieldsite grant not applied")
	}
}

// TestReadsAllImpliesCanRead checks the query-wide ACL shortcut: whenever
// ReadsAll(user) holds, CanRead(user, t) holds for every title, denied
// ones included, and ReadsAll is false exactly when some title is hidden.
func TestReadsAllImpliesCanRead(t *testing.T) {
	titles := []string{"Sensor:X", "Sensor:Secret", "sensor:secret", "Fieldsite:Y", "Deployment:D", "Main Page"}
	cases := []struct {
		name  string
		setup func(a *ACL)
		user  string
		want  bool
	}{
		{"anon on", func(a *ACL) {}, "anyone", true},
		{"anon on, empty user", func(a *ACL) {}, "", true},
		{"anon off", func(a *ACL) { a.SetAnonymousAccess(false) }, "anyone", false},
		{"grant, anon on", func(a *ACL) { a.Grant("alice", wiki.NamespaceSensor) }, "alice", false},
		{"grant to another user", func(a *ACL) { a.Grant("alice", wiki.NamespaceSensor) }, "bob", true},
		{"denial, anon on", func(a *ACL) { a.DenyPage("alice", "Sensor:Secret") }, "alice", false},
		{"denial to another user", func(a *ACL) { a.DenyPage("alice", "Sensor:Secret") }, "bob", true},
		{"denial, anon off", func(a *ACL) {
			a.SetAnonymousAccess(false)
			a.DenyPage("alice", "Sensor:Secret")
		}, "alice", false},
		{"grant and denial", func(a *ACL) {
			a.Grant("alice", wiki.NamespaceFieldsite)
			a.DenyPage("alice", "Fieldsite:Y")
		}, "alice", false},
	}
	for _, tc := range cases {
		acl := NewACL()
		tc.setup(acl)
		got := acl.ReadsAll(tc.user)
		if got != tc.want {
			t.Errorf("%s: ReadsAll(%q) = %v, want %v", tc.name, tc.user, got, tc.want)
		}
		readable := 0
		for _, title := range titles {
			if acl.CanRead(tc.user, title) {
				readable++
			} else if got {
				t.Errorf("%s: ReadsAll(%q) holds but CanRead(%q) is false", tc.name, tc.user, title)
			}
		}
		if !got && readable == len(titles) {
			t.Errorf("%s: ReadsAll(%q) is false but every fixture title is readable", tc.name, tc.user)
		}
	}
}

func TestBulkLoadCSV(t *testing.T) {
	r := newRepo(t)
	csvData := `title,locatedIn,altitude,category
Fieldsite:Davos,,1560,Fieldsites
Deployment:D1,Fieldsite:Davos,,Deployments
,skipped,row,
Sensor:S1,Deployment:D1,,`
	report, err := r.LoadCSV(strings.NewReader(csvData), "loader")
	if err != nil {
		t.Fatal(err)
	}
	if report.Loaded != 3 || report.Skipped != 1 || len(report.Errors) != 0 {
		t.Errorf("report = %+v", report)
	}
	// Loaded rows flow through the normal projections.
	rs, _ := r.QuerySQL("SELECT COUNT(*) FROM pages")
	if rs.Rows[0][0].Int64() != 3 {
		t.Errorf("pages after bulk load = %v", rs.Rows[0][0])
	}
	res, _ := r.QuerySPARQL(`SELECT ?s WHERE { ?s <smr://prop/locatedin> <smr://page/Fieldsite:Davos> }`)
	if len(res.Rows) != 1 {
		t.Errorf("bulk-loaded semantic link missing: %v", res.Rows)
	}
	p, ok := r.Wiki.Get("Fieldsite:Davos")
	if !ok || len(p.Categories) != 1 || p.Categories[0] != "Fieldsites" {
		t.Errorf("category lost in bulk load: %+v", p)
	}
}

func TestBulkLoadCSVErrors(t *testing.T) {
	r := newRepo(t)
	if _, err := r.LoadCSV(strings.NewReader("a,b\n1,2"), "u"); err == nil {
		t.Error("CSV without title column accepted")
	}
	if _, err := r.LoadCSV(strings.NewReader(""), "u"); err == nil {
		t.Error("empty CSV accepted")
	}
}

func TestBulkLoadJSON(t *testing.T) {
	r := newRepo(t)
	jsonData := `[
		{"title": "Sensor:J1", "measures": "humidity", "samplingRate": 60},
		{"title": "Sensor:J2", "measures": "pressure"},
		{"measures": "orphaned"}
	]`
	report, err := r.LoadJSON(strings.NewReader(jsonData), "loader")
	if err != nil {
		t.Fatal(err)
	}
	if report.Loaded != 2 || report.Skipped != 1 {
		t.Errorf("report = %+v", report)
	}
	rs, _ := r.QuerySQL("SELECT numeric FROM annotations WHERE page = 'Sensor:J1' AND property = 'samplingrate'")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Float64() != 60 {
		t.Errorf("numeric JSON property = %v", rs.Rows)
	}
	if _, err := r.LoadJSON(strings.NewReader("{not json"), "u"); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestGenerateWikitextDeterministic(t *testing.T) {
	props := map[string]string{"b": "2", "a": "1", "category": "Cat"}
	w1 := GenerateWikitext(props)
	w2 := GenerateWikitext(props)
	if w1 != w2 {
		t.Error("GenerateWikitext not deterministic")
	}
	if !strings.Contains(w1, "[[a::1]]") || !strings.Contains(w1, "[[Category:Cat]]") {
		t.Errorf("wikitext = %q", w1)
	}
	if strings.Index(w1, "[[a::1]]") > strings.Index(w1, "[[b::2]]") {
		t.Error("keys not sorted")
	}
}

func TestSQLInjectionSafety(t *testing.T) {
	r := newRepo(t)
	// Titles and values with quotes must not break the projection SQL.
	put(t, r, "Sensor:O'Brien", "[[note::it's 5 o'clock]]")
	rs, err := r.QuerySQL("SELECT value FROM annotations WHERE page = 'Sensor:O''Brien'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text0() != "it's 5 o'clock" {
		t.Errorf("quoted annotation = %v", rs.Rows)
	}
}

func TestPageAndPropertyIRIHelpers(t *testing.T) {
	iri := PageIRI("Sensor:X")
	title, ok := TitleFromIRI(iri)
	if !ok || title != "Sensor:X" {
		t.Errorf("TitleFromIRI round trip = %q %v", title, ok)
	}
	if _, ok := TitleFromIRI(PropertyIRI("foo")); ok {
		t.Error("property IRI misread as page")
	}
	if PropertyIRI("MiXeD").Value != PropertyIRIPrefix+"mixed" {
		t.Error("property IRIs must be lower-cased")
	}
}

// TestTypedReadsMatchSQL checks Properties, PropertyValues and PageTags,
// which read through relational.DB.IndexKeys and DistinctWhere, against the
// SELECT DISTINCT queries they answer, on titles, values and tags holding
// quotes, mixed case and duplicates.
func TestTypedReadsMatchSQL(t *testing.T) {
	r := seedRepo(t)
	for _, p := range []struct{ title, text string }{
		{"Sensor:O'Brien-01", "[[measures::wind speed]] [[Note::it's 'quoted']] [[partOf::Deployment:Bob's]]"},
		{"Sensor:o'brien-02", "[[Measures::Wind Speed]] [[note::It's]] [[STATUS::active]] [[note::it's 'quoted']]"},
		{"Deployment:Bob's", "[[locatedIn::Fieldsite:D'Avos]] [[status::Active]]"},
		{"Sensor:Plain", "[[measures::temperature]] [[measures::temperature]]"},
	} {
		if _, err := r.PutPage(p.title, "tester", p.text, ""); err != nil {
			t.Fatal(err)
		}
	}
	titles := []string{"Sensor:O'Brien-01", "Sensor:o'brien-02", "Deployment:Bob's", "Sensor:Plain", "Sensor:Wind-01"}
	for i, tag := range []string{"Alpine", "alpine", " ALPINE ", "it's", "Zed", "o'clock", "alpine"} {
		if err := r.AddTag(titles[i%len(titles)], tag, "tester"); err != nil {
			t.Fatal(err)
		}
		if err := r.AddTag(titles[0], tag, "tester"); err != nil {
			t.Fatal(err)
		}
	}
	quote := func(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }
	check := func(what string, got []string, err error, sql string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		rs, err := r.QuerySQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var want []string
		for _, row := range rs.Rows {
			want = append(want, row[0].Text0())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s = %q, SQL gives %q", what, got, want)
		}
	}
	props, err := r.Properties()
	check("Properties()", props, err, "SELECT DISTINCT property FROM annotations ORDER BY property")
	for _, p := range append(props, "Measures", "NOTE", "missing", "it's") {
		vals, err := r.PropertyValues(p)
		check("PropertyValues("+p+")", vals, err,
			"SELECT DISTINCT value FROM annotations WHERE property = "+quote(strings.ToLower(p))+" ORDER BY value")
	}
	for _, title := range append(titles, "sensor:o'Brien-01", "Sensor:Missing") {
		tags, err := r.PageTags(title)
		check("PageTags("+title+")", tags, err,
			"SELECT DISTINCT tag FROM tags WHERE page = "+quote(wiki.ParseTitle(title).String())+" ORDER BY tag")
	}
}
