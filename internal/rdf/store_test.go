package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

func tr(s, p, o string) Triple {
	return Triple{S: NewIRI(s), P: NewIRI(p), O: NewIRI(o)}
}

func TestAddRemoveHas(t *testing.T) {
	st := NewStore()
	a := tr("s", "p", "o")
	if !st.Add(a) {
		t.Error("first Add reported duplicate")
	}
	if st.Add(a) {
		t.Error("duplicate Add reported new")
	}
	if !st.Has(a) || st.Len() != 1 {
		t.Error("Has/Len wrong after insert")
	}
	if st.RemoveSubject(a.S) != 1 {
		t.Error("RemoveSubject of present triple failed")
	}
	if st.RemoveSubject(a.S) != 0 {
		t.Error("double RemoveSubject succeeded")
	}
	if st.Has(a) || st.Len() != 0 {
		t.Error("Has/Len wrong after delete")
	}
	if st.RemoveSubject(NewIRI("nope")) != 0 {
		t.Error("RemoveSubject of unknown subject succeeded")
	}
}

func TestLiteralsDistinctByTypeAndLang(t *testing.T) {
	st := NewStore()
	s, p := NewIRI("s"), NewIRI("p")
	st.Add(Triple{S: s, P: p, O: NewLiteral("42")})
	st.Add(Triple{S: s, P: p, O: NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#int")})
	st.Add(Triple{S: s, P: p, O: NewLangLiteral("42", "en")})
	if st.Len() != 3 {
		t.Errorf("Len = %d, want 3 (typed/lang literals must stay distinct)", st.Len())
	}
}

func TestMatchPatterns(t *testing.T) {
	st := NewStore()
	st.Add(tr("a", "knows", "b"))
	st.Add(tr("a", "knows", "c"))
	st.Add(tr("b", "knows", "c"))
	st.Add(tr("a", "type", "Person"))

	s, p, o := NewIRI("a"), NewIRI("knows"), NewIRI("c")
	cases := []struct {
		s, p, o *Term
		want    int
	}{
		{nil, nil, nil, 4},
		{&s, nil, nil, 3},
		{nil, &p, nil, 3},
		{nil, nil, &o, 2},
		{&s, &p, nil, 2},
		{&s, nil, &o, 1},
		{nil, &p, &o, 2},
		{&s, &p, &o, 1},
	}
	for i, c := range cases {
		if got := len(st.Match(c.s, c.p, c.o)); got != c.want {
			t.Errorf("case %d: got %d matches, want %d", i, got, c.want)
		}
	}
	missing := NewIRI("zzz")
	if got := st.Match(&missing, nil, nil); got != nil {
		t.Errorf("match on unknown term returned %v", got)
	}
}

func TestMatchDeterministicOrder(t *testing.T) {
	st := NewStore()
	for i := 0; i < 50; i++ {
		st.Add(tr(fmt.Sprintf("s%02d", i%10), "p", fmt.Sprintf("o%02d", i)))
	}
	first := st.Match(nil, nil, nil)
	for trial := 0; trial < 5; trial++ {
		again := st.Match(nil, nil, nil)
		for i := range first {
			if first[i] != again[i] {
				t.Fatal("Match order not deterministic")
			}
		}
	}
}

// ntriplesSorted sorts triples by their N-Triples text, built in full: the
// reference for the order Match produces without building it.
func ntriplesSorted(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].String() < ts[j].String() })
}

// adversarialTerm draws a term whose N-Triples text is hard to order
// without building it: blank labels that are prefixes of one another,
// values with escaped and control bytes, IRIs containing '>' and spaces,
// and literals with a language, a datatype or both.
func adversarialTerm(rng *rand.Rand) Term {
	values := []string{"", "a", "ab", "a b", "a .", "a>", "a> <b", "a\\", "a\"", "a\nb", "a\tb",
		"a\rb", "a\x00", "\x01", "\x1f", "\\n", "a\"b\\", " ", "@", "^", "~", "é"}
	langs := []string{"en", "e", "en-GB", "x y"}
	types := []string{"http://t", "http://t>", "x"}
	v := values[rng.Intn(len(values))]
	switch rng.Intn(6) {
	case 0:
		return NewIRI(v)
	case 1:
		return NewBlank(v)
	case 2:
		return NewLiteral(v)
	case 3:
		return NewLangLiteral(v, langs[rng.Intn(len(langs))])
	case 4:
		return NewTypedLiteral(v, types[rng.Intn(len(types))])
	default:
		return Term{Kind: Literal, Value: v, Lang: langs[rng.Intn(len(langs))], Datatype: types[rng.Intn(len(types))]}
	}
}

func TestCompareNTriplesMatchesStringCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		var a, b [3]*Term
		for k := range a {
			ta, tb := adversarialTerm(rng), adversarialTerm(rng)
			a[k], b[k] = &ta, &tb
		}
		// Share leading terms now and then, as triples of one subject do.
		from := rng.Intn(3)
		for k := 0; k < from; k++ {
			b[k] = a[k]
		}
		x, y := Triple{*a[0], *a[1], *a[2]}, Triple{*b[0], *b[1], *b[2]}
		if got, want := compareNTriples(a, b, from), strings.Compare(x.String(), y.String()); got != want {
			t.Fatalf("compareNTriples(%q, %q) = %d, want %d", x, y, got, want)
		}
	}
}

func TestMatchOrderMatchesNTriplesSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool []Term
		for i := 0; i < 12; i++ {
			pool = append(pool, adversarialTerm(rng))
		}
		var all []Triple
		st := NewStore()
		for i := 0; i < 120; i++ {
			tp := Triple{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
			if st.Add(tp) {
				all = append(all, tp)
			}
		}
		// The same triples added in reverse: ties between triples with
		// one text must still come out in one order.
		rev := NewStore()
		for i := len(all) - 1; i >= 0; i-- {
			rev.Add(all[i])
		}
		// Bound positions take pool terms (some absent from the store)
		// and one term that is in no triple.
		pick := func() Term {
			if rng.Intn(20) == 0 {
				return NewIRI("not in the store")
			}
			return pool[rng.Intn(len(pool))]
		}
		for q := 0; q < 100; q++ {
			s, p, o := pick(), pick(), pick()
			for mask := 0; mask < 8; mask++ {
				if mask == 0 && q > 0 {
					continue // the full scan does not depend on the pick
				}
				var sp, pp, op *Term
				if mask&1 != 0 {
					sp = &s
				}
				if mask&2 != 0 {
					pp = &p
				}
				if mask&4 != 0 {
					op = &o
				}
				var want []Triple
				for _, tp := range all {
					if (sp == nil || tp.S.Key() == sp.Key()) && (pp == nil || tp.P.Key() == pp.Key()) &&
						(op == nil || tp.O.Key() == op.Key()) {
						want = append(want, tp)
					}
				}
				ntriplesSorted(want)
				got := st.Match(sp, pp, op)
				if len(got) != len(want) {
					t.Fatalf("seed %d Match(%v, %v, %v): %d triples, want %d", seed, sp, pp, op, len(got), len(want))
				}
				for i := range got {
					if !st.Has(got[i]) || got[i].String() != want[i].String() {
						t.Fatalf("seed %d Match(%v, %v, %v)[%d] = %q, want %q", seed, sp, pp, op, i, got[i], want[i])
					}
				}
				if again := rev.Match(sp, pp, op); !slices.Equal(got, again) {
					t.Fatalf("seed %d Match(%v, %v, %v) depends on insertion order", seed, sp, pp, op)
				}
			}
		}
	}
}

// TestMatchSortAllocatesNothing checks that ordering matches costs no
// allocation per comparison: a Match allocates its two result slices, however
// many matches it sorts and however many of their literals need escaping.
func TestMatchSortAllocatesNothing(t *testing.T) {
	st := NewStore()
	for i := 0; i < 500; i++ {
		st.Add(Triple{S: NewBlank(fmt.Sprint(i % 37)), P: NewIRI(fmt.Sprint("p", i%5)),
			O: NewLangLiteral(fmt.Sprintf("line\t%d \"q\"\n", i), "en")})
	}
	if allocs := testing.AllocsPerRun(20, func() { st.Match(nil, nil, nil) }); allocs > 2 {
		t.Errorf("Match of %d triples allocates %.0f times, want 2", st.Len(), allocs)
	}
}

func TestRemoveSubject(t *testing.T) {
	st, want := NewStore(), NewStore()
	for i := 0; i < 40; i++ {
		tp := tr(fmt.Sprintf("s%d", i%4), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i%5))
		st.Add(tp)
		if tp.S.Value != "s1" {
			want.Add(tp)
		}
	}
	before := st.Len()
	if n := st.RemoveSubject(NewIRI("s1")); n != before-want.Len() || n == 0 {
		t.Fatalf("RemoveSubject removed %d of %d", n, before-want.Len())
	}
	// Every index agrees with a store that never held the subject.
	for i := 0; i < 5; i++ {
		p, o := NewIRI(fmt.Sprintf("p%d", i%3)), NewIRI(fmt.Sprintf("o%d", i))
		for _, c := range [][2]*Term{{nil, nil}, {&p, nil}, {nil, &o}, {&p, &o}} {
			if got, exp := st.Match(nil, c[0], c[1]), want.Match(nil, c[0], c[1]); !slices.Equal(got, exp) {
				t.Errorf("Match(nil, %v, %v) = %v, want %v", c[0], c[1], got, exp)
			}
		}
	}
	s1 := NewIRI("s1")
	if st.Len() != want.Len() || st.Match(&s1, nil, nil) != nil {
		t.Errorf("subject still present: Len %d, want %d", st.Len(), want.Len())
	}
	st.Add(tr("s1", "p0", "o0"))
	if got := st.Match(&s1, nil, nil); len(got) != 1 {
		t.Errorf("re-added subject matches %v", got)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		t    Term
		want string
	}{
		{NewIRI("http://x/y"), "<http://x/y>"},
		{NewLiteral(`say "hi"`), `"say \"hi\""`},
		{NewLiteral("a\nb"), `"a\nb"`},
		{NewLangLiteral("chat", "fr"), `"chat"@fr`},
		{NewTypedLiteral("1", "http://t"), `"1"^^<http://t>`},
		{NewBlank("n1"), "_:n1"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String = %s, want %s", got, c.want)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	st := NewStore()
	st.Add(tr("http://ex/a", "http://ex/p", "http://ex/b"))
	st.Add(Triple{S: NewIRI("http://ex/a"), P: NewIRI("http://ex/label"), O: NewLiteral(`multi "quote" and \ slash`)})
	st.Add(Triple{S: NewIRI("http://ex/a"), P: NewIRI("http://ex/temp"), O: NewTypedLiteral("-3.5", "http://www.w3.org/2001/XMLSchema#double")})
	st.Add(Triple{S: NewIRI("http://ex/a"), P: NewIRI("http://ex/name"), O: NewLangLiteral("Wannengrat", "de")})
	st.Add(Triple{S: NewBlank("b0"), P: NewIRI("http://ex/p"), O: NewBlank("b1")})

	var buf bytes.Buffer
	if err := st.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	n, err := restored.ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Len() {
		t.Fatalf("restored %d of %d triples", n, st.Len())
	}
	a, b := st.Match(nil, nil, nil), restored.Match(nil, nil, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("triple %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReadNTriplesSkipsCommentsAndBlanks(t *testing.T) {
	input := `# a comment

<http://a> <http://p> <http://b> .
# another
<http://a> <http://p> "lit"@en .
`
	st := NewStore()
	n, err := st.ReadNTriples(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("added %d triples, want 2", n)
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	for _, line := range []string{
		`<http://a> <http://p>`,
		`<http://a <http://p> <http://b> .`,
		`<http://a> <http://p> "unterminated .`,
		`<http://a> <http://p> <http://b>`,
		`junk`,
	} {
		st := NewStore()
		if _, err := st.ReadNTriples(strings.NewReader(line)); err == nil {
			t.Errorf("no error for %q", line)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	st := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				s := fmt.Sprintf("s%d", rng.Intn(20))
				o := fmt.Sprintf("o%d", rng.Intn(20))
				switch rng.Intn(3) {
				case 0:
					st.Add(tr(s, "p", o))
				case 1:
					st.RemoveSubject(NewIRI(s))
				default:
					st.Match(nil, nil, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	// Consistency: every indexed triple is in the main set.
	all := st.Match(nil, nil, nil)
	for _, tp := range all {
		if !st.Has(tp) {
			t.Errorf("index/main set mismatch for %v", tp)
		}
	}
}
