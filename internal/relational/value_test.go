package relational

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null not null")
	}
	if Int(7).Int64() != 7 || Int(7).Type() != TypeInt {
		t.Error("Int broken")
	}
	if Float(2.5).Float64() != 2.5 {
		t.Error("Float broken")
	}
	if Int(3).Float64() != 3 {
		t.Error("Int should convert via Float64")
	}
	if Text("x").Text0() != "x" {
		t.Error("Text broken")
	}
	if !Bool(true).Bool0() {
		t.Error("Bool broken")
	}
	if !Int(1).IsNumeric() || !Float(1).IsNumeric() || Text("1").IsNumeric() || Null().IsNumeric() {
		t.Error("IsNumeric misclassifies")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{Text("hi"), "hi"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(1.5), Int(2), -1},
		{Text("a"), Text("b"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Int(1), Text("1"), -1}, // cross-type: ordered by type id
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false in SQL semantics")
	}
	if !Equal(Int(2), Float(2)) {
		t.Error("2 = 2.0 should hold")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(Int(2), TypeFloat)
	if err != nil || v.Type() != TypeFloat || v.Float64() != 2 {
		t.Errorf("int→float coerce failed: %v %v", v, err)
	}
	if _, err := Coerce(Text("x"), TypeInt); err == nil {
		t.Error("text→int coerce should fail")
	}
	if v, err := Coerce(Null(), TypeInt); err != nil || !v.IsNull() {
		t.Error("NULL must coerce to anything")
	}
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(rng.Int63n(100) - 50)
	case 2:
		return Float(rng.NormFloat64())
	case 3:
		return Bool(rng.Intn(2) == 0)
	default:
		return Text(string(rune('a' + rng.Intn(26))))
	}
}

// Property: Compare is antisymmetric and transitive-ish (total order check on
// random triples).
func TestCompareIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		a, b, c := randomValue(rng), randomValue(rng), randomValue(rng)
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated for %v, %v, %v", a, b, c)
		}
	}
}

// Property: LIKE with the pattern equal to the string (no wildcards) always
// matches, case-insensitively.
func TestLikeSelfMatchProperty(t *testing.T) {
	f := func(s string) bool {
		// Exclude wildcard bytes from the property.
		for _, r := range s {
			if r == '%' || r == '_' {
				return true
			}
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"wind sensor", "wind%", true},
		{"wind sensor", "%sensor", true},
		{"wind sensor", "%nd se%", true},
		{"wind sensor", "wind_sensor", true},
		{"wind sensor", "w__d%", true},
		{"wind sensor", "sensor%", false},
		{"WIND", "wind", true}, // case-insensitive
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"abc", "%%%", true},
		{"ab", "a_c", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestLikeAgainstRegexpOracle compares LIKE with the equivalent anchored
// regular expression on random short strings and patterns, and checks that
// patterns which make naive backtracking exponential still finish.
func TestLikeAgainstRegexpOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func(alphabet string, n int) string {
		b := make([]byte, rng.Intn(n+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		s, p := gen("abA", 8), gen("ab%_", 6)
		re := "(?is)^" + strings.NewReplacer("%", ".*", "_", ".").Replace(p) + "$"
		if want := regexp.MustCompile(re).MatchString(s); likeMatch(s, p) != want {
			t.Fatalf("likeMatch(%q, %q) = %v, want %v", s, p, !want, want)
		}
	}
	s := strings.Repeat("a", 4000)
	if likeMatch(s, strings.Repeat("%a", 300)+"b") || !likeMatch(s, strings.Repeat("%a", 300)+"%") {
		t.Error("long wildcard patterns answered wrongly")
	}
}
