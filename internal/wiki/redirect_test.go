package wiki

import "testing"

func TestParseRedirect(t *testing.T) {
	s := NewStore()
	p, err := s.Put("Old Name", "u", "#REDIRECT [[Sensor:New-Name]]", "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Redirect == nil || p.Redirect.String() != "Sensor:New-Name" {
		t.Fatalf("Redirect = %+v", p.Redirect)
	}
	// Case-insensitive directive, label stripped.
	p, _ = s.Put("Other", "u", "  #redirect [[Target|label]] trailing", "")
	if p.Redirect == nil || p.Redirect.String() != "Target" {
		t.Errorf("Redirect = %+v", p.Redirect)
	}
	// Non-redirects.
	for _, text := range []string{
		"plain text with #REDIRECT later? no: must be leading",
		"#REDIRECT no-brackets",
		"#REDIRECT [[]]",
		"#REDIRECT [[unclosed",
	} {
		p, _ = s.Put("X", "u", text, "")
		if p.Redirect != nil {
			t.Errorf("text %q parsed as redirect to %v", text, p.Redirect)
		}
	}
}

func TestTemplateParameters(t *testing.T) {
	s := NewStore()
	p, err := s.Put("Sensor:T1", "u",
		"{{SensorInfobox|measures=wind speed|samplingRate=10|positional|empty=}} prose", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Annotations) != 2 {
		t.Fatalf("annotations = %+v", p.Annotations)
	}
	if p.Annotations[0].Property != "measures" || p.Annotations[0].Value != "wind speed" {
		t.Errorf("first annotation = %+v", p.Annotations[0])
	}
	if len(p.Categories) != 1 || p.Categories[0] != "SensorInfobox" {
		t.Errorf("categories = %v", p.Categories)
	}
}

func TestTemplateAndInlineAnnotationsCombine(t *testing.T) {
	s := NewStore()
	p, _ := s.Put("X", "u", "[[a::1]] {{T|b=2}} [[Category:C]]", "")
	if len(p.Annotations) != 2 {
		t.Fatalf("annotations = %+v", p.Annotations)
	}
	if len(p.Categories) != 2 {
		t.Errorf("categories = %v", p.Categories)
	}
}

func TestTemplateMalformed(t *testing.T) {
	s := NewStore()
	for _, text := range []string{"{{}}", "{{ |a=b}}", "{{unclosed", "no templates"} {
		p, _ := s.Put("X", "u", text, "")
		if len(p.Annotations) != 0 {
			t.Errorf("text %q produced annotations %v", text, p.Annotations)
		}
	}
}

func TestRedirectStillCreatesLink(t *testing.T) {
	// The redirect target is also an ordinary link, so the link graph
	// carries the edge.
	s := NewStore()
	p, _ := s.Put("A", "u", "#REDIRECT [[Sensor:B]]", "")
	if len(p.Links) != 1 || p.Links[0].String() != "Sensor:B" {
		t.Errorf("links = %v", p.Links)
	}
}
