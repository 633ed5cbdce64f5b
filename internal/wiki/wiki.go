// Package wiki implements the Semantic-MediaWiki-like substrate of the
// Sensor Metadata Repository: titled pages with revision history, organized
// in namespaces, whose wikitext carries three kinds of markup the search
// system consumes —
//
//	[[Target]]              an ordinary page link (the "page link" structure)
//	[[Property::Value]]     a semantic annotation, i.e. an (attribute, value)
//	                        pair that also links pages when Value is a page
//	[[Category:Name]]       category membership
//
// internal/smr projects these onto the relational store and the RDF graph.
package wiki

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Namespace partitions page titles, mirroring the fieldsite/deployment/
// sensor organization of the Swiss Experiment wiki.
type Namespace string

// Well-known namespaces of the SMR.
const (
	NamespaceMain       Namespace = ""
	NamespaceFieldsite  Namespace = "Fieldsite"
	NamespaceDeployment Namespace = "Deployment"
	NamespaceSensor     Namespace = "Sensor"
	NamespaceProperty   Namespace = "Property"
	NamespaceUser       Namespace = "User"
)

// Title is a namespaced page title.
type Title struct {
	Namespace Namespace
	Name      string
}

// ParseTitle splits "Namespace:Name" (no colon means the main namespace).
// An empty namespace before the first colon also means the main namespace
// and the rest is parsed again, so every parsed title's canonical form
// (String) parses back to the same title.
func ParseTitle(s string) Title {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		ns := strings.TrimSpace(s[:i])
		if ns == "" {
			return ParseTitle(s[i+1:])
		}
		return Title{Namespace: Namespace(ns), Name: strings.TrimSpace(s[i+1:])}
	}
	return Title{Name: strings.TrimSpace(s)}
}

// String renders the canonical title form.
func (t Title) String() string {
	if t.Namespace == NamespaceMain {
		return t.Name
	}
	return string(t.Namespace) + ":" + t.Name
}

// Annotation is one semantic (attribute, value) pair extracted from
// wikitext.
type Annotation struct {
	Property string
	Value    string
}

// Revision is one stored version of a page.
type Revision struct {
	ID        int
	Author    string
	Timestamp time.Time
	Text      string
	Comment   string
}

// Page is a wiki page with its parsed structure (computed from the latest
// revision).
type Page struct {
	Title       Title
	Revisions   []Revision
	Links       []Title      // ordinary page links, in order of appearance
	Annotations []Annotation // semantic annotations, in order
	Categories  []string
	// Redirect is set when the page is a #REDIRECT [[Target]] stub.
	Redirect *Title
}

// Text returns the current wikitext (empty for a page with no revisions).
func (p *Page) Text() string {
	if len(p.Revisions) == 0 {
		return ""
	}
	return p.Revisions[len(p.Revisions)-1].Text
}

// PropertyValues returns the values annotated for one property.
func (p *Page) PropertyValues(property string) []string {
	var out []string
	for _, a := range p.Annotations {
		if strings.EqualFold(a.Property, property) {
			out = append(out, a.Value)
		}
	}
	return out
}

// Store is the page repository. It is safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	pages map[string]*Page // guarded by mu; key: canonical title
	clock func() time.Time // guarded by mu
	revID int              // guarded by mu
}

// NewStore returns an empty page store.
func NewStore() *Store {
	//smrlint:ignore replayclock the injection point: real wall time enters the module here, once; SetClock swaps it out for replay and tests
	return &Store{pages: make(map[string]*Page), clock: time.Now}
}

// SetClock replaces the timestamp source (tests use a fixed clock).
func (s *Store) SetClock(clock func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = clock
}

// Clock returns the current timestamp source, so a replay path can swap in
// a historic clock and put the original back when it is done.
func (s *Store) Clock() func() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clock
}

// Now reads the store's clock — the one timestamp source every repository
// mutation shares, so replayed history is stamped consistently.
func (s *Store) Now() time.Time {
	s.mu.RLock()
	clock := s.clock
	s.mu.RUnlock()
	return clock()
}

// Install inserts a fully-formed page with its revision history — the
// snapshot restore path. Unlike Put it parses only the latest revision's
// text (earlier revisions are history, not structure) and it refuses to
// replace an existing page. Revision ids are renumbered, as on any load.
func (s *Store) Install(title string, revisions []Revision) (*Page, error) {
	t := ParseTitle(title)
	if t.Name == "" {
		return nil, fmt.Errorf("wiki: empty page title %q", title)
	}
	if len(revisions) == 0 {
		return nil, fmt.Errorf("wiki: installing %q with no revisions", title)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := t.String()
	if _, dup := s.pages[key]; dup {
		return nil, fmt.Errorf("wiki: page %q already present", key)
	}
	p := &Page{Title: t, Revisions: make([]Revision, len(revisions))}
	copy(p.Revisions, revisions)
	for i := range p.Revisions {
		s.revID++
		p.Revisions[i].ID = s.revID
	}
	text := p.Revisions[len(p.Revisions)-1].Text
	p.Links, p.Annotations, p.Categories = ParseWikitext(text)
	p.Redirect = parseRedirect(text)
	s.pages[key] = p
	return p, nil
}

// Put creates or updates a page with new wikitext, recording a revision.
// It returns the parsed page. A published *Page is never mutated: Put
// installs a fresh copy, so pointers handed out earlier by Get/Each stay
// valid immutable snapshots for concurrent readers.
func (s *Store) Put(title, author, text, comment string) (*Page, error) {
	t := ParseTitle(title)
	if t.Name == "" {
		return nil, fmt.Errorf("wiki: empty page title %q", title)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := t.String()
	p := &Page{Title: t}
	if old, ok := s.pages[key]; ok {
		p.Title = old.Title
		p.Revisions = make([]Revision, len(old.Revisions), len(old.Revisions)+1)
		copy(p.Revisions, old.Revisions)
	}
	s.revID++
	p.Revisions = append(p.Revisions, Revision{
		ID:        s.revID,
		Author:    author,
		Timestamp: s.clock(),
		Text:      text,
		Comment:   comment,
	})
	p.Links, p.Annotations, p.Categories = ParseWikitext(text)
	p.Redirect = parseRedirect(text)
	s.pages[key] = p
	return p, nil
}

// parseRedirect detects a leading "#REDIRECT [[Target]]" directive
// (case-insensitive, as in MediaWiki).
func parseRedirect(text string) *Title {
	trimmed := strings.TrimSpace(text)
	rest, ok := cutPrefixFold(trimmed, "#REDIRECT")
	if !ok {
		return nil
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "[[") {
		return nil
	}
	end := strings.Index(rest, "]]")
	if end < 0 {
		return nil
	}
	inner := rest[2:end]
	if bar := strings.IndexByte(inner, '|'); bar >= 0 {
		inner = inner[:bar]
	}
	inner = strings.TrimSpace(inner)
	if inner == "" {
		return nil
	}
	t := ParseTitle(inner)
	return &t
}

// Get returns a page by title.
func (s *Store) Get(title string) (*Page, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pages[ParseTitle(title).String()]
	return p, ok
}

// Delete removes a page and reports whether it existed.
func (s *Store) Delete(title string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := ParseTitle(title).String()
	if _, ok := s.pages[key]; !ok {
		return false
	}
	delete(s.pages, key)
	return true
}

// Len returns the number of pages.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// Titles returns every page title, sorted canonically.
func (s *Store) Titles() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pages))
	for k := range s.pages {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PagesInNamespace returns the titles within one namespace, sorted.
func (s *Store) PagesInNamespace(ns Namespace) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k, p := range s.pages {
		if p.Title.Namespace == ns {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Each calls fn for every page in sorted title order.
func (s *Store) Each(fn func(*Page)) {
	s.mu.RLock()
	titles := make([]string, 0, len(s.pages))
	for k := range s.pages {
		titles = append(titles, k)
	}
	sort.Strings(titles)
	pages := make([]*Page, len(titles))
	for i, t := range titles {
		pages[i] = s.pages[t]
	}
	s.mu.RUnlock()
	for _, p := range pages {
		fn(p)
	}
}

// ParseWikitext extracts page links, semantic annotations and categories
// from wikitext. Forms handled:
//
//	[[Target]]                  → link
//	[[Target|label]]            → link (label ignored)
//	[[Property::Value]]         → annotation (+ link when Value parses to a
//	                              namespaced or capitalized page title form)
//	[[Property::Value|label]]   → annotation
//	[[Category:Name]]           → category
//	{{Template|k=v|…}}          → annotations k::v (the Semantic MediaWiki
//	                              idiom of entering metadata through infobox
//	                              templates whose parameters set properties);
//	                              the template name becomes a category
func ParseWikitext(text string) (links []Title, annotations []Annotation, categories []string) {
	templAnns, templCats := parseTemplates(text)
	defer func() {
		annotations = append(annotations, templAnns...)
		categories = append(categories, templCats...)
	}()
	for i := 0; i+1 < len(text); {
		start := strings.Index(text[i:], "[[")
		if start < 0 {
			break
		}
		start += i
		end := strings.Index(text[start:], "]]")
		if end < 0 {
			break
		}
		end += start
		inner := text[start+2 : end]
		i = end + 2

		// Strip display label.
		if bar := strings.IndexByte(inner, '|'); bar >= 0 {
			inner = inner[:bar]
		}
		inner = strings.TrimSpace(inner)
		if inner == "" {
			continue
		}

		if sep := strings.Index(inner, "::"); sep >= 0 {
			prop := strings.TrimSpace(inner[:sep])
			val := strings.TrimSpace(inner[sep+2:])
			if prop == "" || val == "" {
				continue
			}
			annotations = append(annotations, Annotation{Property: prop, Value: val})
			continue
		}

		if rest, ok := cutPrefixFold(inner, "Category:"); ok {
			name := strings.TrimSpace(rest)
			if name != "" {
				categories = append(categories, name)
			}
			continue
		}

		links = append(links, ParseTitle(inner))
	}
	return links, annotations, categories
}

// cutPrefixFold is strings.CutPrefix with ASCII case folding.
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) {
		return s, false
	}
	if strings.EqualFold(s[:len(prefix)], prefix) {
		return s[len(prefix):], true
	}
	return s, false
}

// parseTemplates extracts {{Template|k=v|…}} transclusions: each named
// parameter becomes an annotation, the template name a category. Nested
// templates are not expanded (the SMR corpus never nests); positional
// parameters are ignored.
func parseTemplates(text string) (annotations []Annotation, categories []string) {
	for i := 0; i+1 < len(text); {
		start := strings.Index(text[i:], "{{")
		if start < 0 {
			break
		}
		start += i
		end := strings.Index(text[start:], "}}")
		if end < 0 {
			break
		}
		end += start
		inner := text[start+2 : end]
		i = end + 2

		parts := strings.Split(inner, "|")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		categories = append(categories, name)
		for _, p := range parts[1:] {
			eq := strings.IndexByte(p, '=')
			if eq <= 0 {
				continue // positional parameter
			}
			k := strings.TrimSpace(p[:eq])
			v := strings.TrimSpace(p[eq+1:])
			if k == "" || v == "" {
				continue
			}
			annotations = append(annotations, Annotation{Property: k, Value: v})
		}
	}
	return annotations, categories
}
