package wiki

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestParseTitle(t *testing.T) {
	cases := []struct {
		in   string
		want Title
	}{
		{"Plain", Title{Name: "Plain"}},
		{"Sensor:Wind-01", Title{Namespace: "Sensor", Name: "Wind-01"}},
		{"  Fieldsite : Davos ", Title{Namespace: "Fieldsite", Name: "Davos"}},
		{":Plain", Title{Name: "Plain"}},
		{"::Plain", Title{Name: "Plain"}},
		{" :Sensor:Wind-01", Title{Namespace: "Sensor", Name: "Wind-01"}},
		{"Sensor:a:b", Title{Namespace: "Sensor", Name: "a:b"}},
	}
	for _, c := range cases {
		got := ParseTitle(c.in)
		if got != c.want {
			t.Errorf("ParseTitle(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// The canonical form names the same page.
		if again := ParseTitle(got.String()); again != got {
			t.Errorf("ParseTitle(%q) = %+v, but its canonical form %q parses to %+v", c.in, got, got.String(), again)
		}
	}
	if ParseTitle("Sensor:X").String() != "Sensor:X" {
		t.Error("Title round trip broken")
	}
	if ParseTitle("X").String() != "X" {
		t.Error("main-namespace round trip broken")
	}
}

func TestParseWikitext(t *testing.T) {
	text := `The [[Deployment:Wannengrat]] deployment hosts [[Sensor:Wind-01|a wind sensor]].
[[operatedBy::EPFL]] [[altitude::2440]]
[[locatedIn::Fieldsite:Davos|the Davos site]]
[[Category:Deployments]] [[category:Active]]
Broken: [[ ]] [[x::]] [[::y]] [[unclosed`

	links, anns, cats := ParseWikitext(text)
	wantLinks := []Title{
		{Namespace: "Deployment", Name: "Wannengrat"},
		{Namespace: "Sensor", Name: "Wind-01"},
	}
	if !reflect.DeepEqual(links, wantLinks) {
		t.Errorf("links = %+v, want %+v", links, wantLinks)
	}
	wantAnns := []Annotation{
		{Property: "operatedBy", Value: "EPFL"},
		{Property: "altitude", Value: "2440"},
		{Property: "locatedIn", Value: "Fieldsite:Davos"},
	}
	if !reflect.DeepEqual(anns, wantAnns) {
		t.Errorf("annotations = %+v, want %+v", anns, wantAnns)
	}
	if !reflect.DeepEqual(cats, []string{"Deployments", "Active"}) {
		t.Errorf("categories = %+v", cats)
	}
}

func TestParseWikitextEmpty(t *testing.T) {
	links, anns, cats := ParseWikitext("no markup at all")
	if links != nil || anns != nil || cats != nil {
		t.Error("plain text produced structure")
	}
}

func TestPutGetAndRevisions(t *testing.T) {
	s := NewStore()
	now := time.Date(2011, 4, 11, 12, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return now })

	p, err := s.Put("Sensor:Wind-01", "alice", "[[partOf::Deployment:W]] v1", "create")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Revisions) != 1 || p.Revisions[0].Author != "alice" {
		t.Fatalf("revisions = %+v", p.Revisions)
	}
	if !p.Revisions[0].Timestamp.Equal(now) {
		t.Error("clock not used")
	}
	if _, err := s.Put("Sensor:Wind-01", "bob", "[[partOf::Deployment:X]] v2", "edit"); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("Sensor:Wind-01")
	if !ok {
		t.Fatal("page missing")
	}
	if len(got.Revisions) != 2 {
		t.Fatalf("revisions after edit = %d", len(got.Revisions))
	}
	if got.Text() != "[[partOf::Deployment:X]] v2" {
		t.Errorf("Text = %q", got.Text())
	}
	// Parsed structure follows the latest revision.
	if got.PropertyValues("partOf")[0] != "Deployment:X" {
		t.Errorf("annotations not refreshed: %+v", got.Annotations)
	}
	// Revision ids are globally increasing.
	if got.Revisions[1].ID <= got.Revisions[0].ID {
		t.Error("revision ids not increasing")
	}
}

func TestPutEmptyTitleFails(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("", "a", "x", ""); err == nil {
		t.Error("empty title accepted")
	}
	if _, err := s.Put("Sensor:", "a", "x", ""); err == nil {
		t.Error("empty name accepted")
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	s.Put("A", "u", "", "")
	if !s.Delete("A") {
		t.Error("delete failed")
	}
	if s.Delete("A") {
		t.Error("double delete succeeded")
	}
	if s.Len() != 0 {
		t.Error("Len after delete")
	}
}

func TestNamespaceAndCategoryQueries(t *testing.T) {
	s := NewStore()
	s.Put("Sensor:A", "u", "[[Category:Active]]", "")
	s.Put("Sensor:B", "u", "", "")
	s.Put("Fieldsite:D", "u", "[[Category:active]]", "")
	s.Put("Plain", "u", "", "")

	if got := s.PagesInNamespace(NamespaceSensor); !reflect.DeepEqual(got, []string{"Sensor:A", "Sensor:B"}) {
		t.Errorf("PagesInNamespace = %v", got)
	}
	if got := s.PagesInNamespace(NamespaceMain); !reflect.DeepEqual(got, []string{"Plain"}) {
		t.Errorf("main namespace = %v", got)
	}
	if got := s.PagesInCategory("ACTIVE"); !reflect.DeepEqual(got, []string{"Fieldsite:D", "Sensor:A"}) {
		t.Errorf("PagesInCategory = %v", got)
	}
}

func TestTitlesSortedAndEach(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"C", "A", "B"} {
		s.Put(name, "u", "", "")
	}
	if got := s.Titles(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Errorf("Titles = %v", got)
	}
	var visited []string
	s.Each(func(p *Page) { visited = append(visited, p.Title.String()) })
	if !reflect.DeepEqual(visited, []string{"A", "B", "C"}) {
		t.Errorf("Each order = %v", visited)
	}
}

func TestPropertyValuesCaseInsensitive(t *testing.T) {
	s := NewStore()
	p, _ := s.Put("X", "u", "[[OperatedBy::EPFL]] [[operatedby::WSL]]", "")
	if got := p.PropertyValues("operatedBy"); len(got) != 2 {
		t.Errorf("PropertyValues = %v", got)
	}
	if got := p.PropertyValues("missing"); got != nil {
		t.Errorf("missing property = %v", got)
	}
}

func TestConcurrentPut(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				title := fmt.Sprintf("Sensor:S%d", (w*50+i)%25)
				if _, err := s.Put(title, "u", fmt.Sprintf("rev by %d", w), ""); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 25 {
		t.Errorf("Len = %d, want 25", s.Len())
	}
	// 400 revisions total, each with a unique id.
	ids := make(map[int]bool)
	s.Each(func(p *Page) {
		for _, r := range p.Revisions {
			if ids[r.ID] {
				t.Errorf("duplicate revision id %d", r.ID)
			}
			ids[r.ID] = true
		}
	})
	if len(ids) != 400 {
		t.Errorf("total revisions = %d, want 400", len(ids))
	}
}
