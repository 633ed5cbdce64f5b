package sortedset

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// oracle is the naive reference implementation: a plain map.
type oracle map[string]bool

func (o oracle) sorted() []string {
	out := make([]string, 0, len(o))
	for v := range o {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func checkSet(t *testing.T, s []string, want oracle, ctx string) {
	t.Helper()
	if got, wantS := s, want.sorted(); !reflect.DeepEqual(append([]string{}, got...), wantS) {
		t.Fatalf("%s: set %v, oracle %v", ctx, got, wantS)
	}
}

// TestInsertRemoveVsOracle drives random insert/remove sequences against
// the map oracle, checking membership, order and distinctness after every
// operation.
func TestInsertRemoveVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s []string
	o := oracle{}
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	for step := 0; step < 2000; step++ {
		v := vocab[rng.Intn(len(vocab))]
		if rng.Intn(2) == 0 {
			var changed bool
			s, changed = Insert(s, v)
			if changed == o[v] {
				t.Fatalf("step %d: Insert(%q) changed=%v, oracle had=%v", step, v, changed, o[v])
			}
			o[v] = true
		} else {
			var changed bool
			s, changed = Remove(s, v)
			if changed != o[v] {
				t.Fatalf("step %d: Remove(%q) changed=%v, oracle had=%v", step, v, changed, o[v])
			}
			delete(o, v)
		}
		if Contains(s, v) != o[v] {
			t.Fatalf("step %d: Contains(%q) disagrees with oracle", step, v)
		}
		checkSet(t, s, o, "after op")
	}
}

func randomSet(rng *rand.Rand, vocab []string, n int) ([]string, oracle) {
	o := oracle{}
	for i := 0; i < n; i++ {
		o[vocab[rng.Intn(len(vocab))]] = true
	}
	return o.sorted(), o
}

// TestBinaryOpsVsOracle checks Intersect/Union/Diff/IntersectWalk
// against set arithmetic on the oracle maps, over random operands.
func TestBinaryOpsVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vocab := strings.Split("a b c d e f g h i j k l m n o p q r s t", " ")
	for trial := 0; trial < 300; trial++ {
		a, oa := randomSet(rng, vocab, rng.Intn(15))
		b, ob := randomSet(rng, vocab, rng.Intn(15))
		inter, union, diff := oracle{}, oracle{}, oracle{}
		for v := range oa {
			if ob[v] {
				inter[v] = true
			} else {
				diff[v] = true
			}
			union[v] = true
		}
		for v := range ob {
			union[v] = true
		}
		checkSet(t, Intersect(a, b), inter, "Intersect")
		checkSet(t, Union(Clone(a), b), union, "Union")
		checkSet(t, Diff(a, b), diff, "Diff")
		var walked []string
		IntersectWalk(a, b, func(v string) { walked = append(walked, v) })
		checkSet(t, walked, inter, "IntersectWalk")
	}
}

// TestIntersectWalkGalloping exercises the binary-search branch (one
// operand ≥ 16× the other) against the two-pointer result.
func TestIntersectWalkGalloping(t *testing.T) {
	var big []string
	for i := 0; i < 400; i++ {
		big = append(big, string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+i%7)))
	}
	big = FromSlice(big)
	small := []string{big[3], big[len(big)/2], big[len(big)-1], "zzz-not-there"}
	small = FromSlice(small)
	want := Intersect(small, small[:3]) // self-check helper
	_ = want
	var got []string
	IntersectWalk(small, big, func(v string) { got = append(got, v) })
	if !reflect.DeepEqual(got, small[:len(small)-1]) {
		t.Fatalf("galloping intersect = %v, want %v", got, small[:len(small)-1])
	}
}

// TestDiffWalkVsOracle checks the merge-diff callbacks partition the two
// snapshots exactly into removed/added/kept.
func TestDiffWalkVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vocab := strings.Split("a b c d e f g h i j", " ")
	for trial := 0; trial < 300; trial++ {
		prev, op := randomSet(rng, vocab, rng.Intn(8))
		next, on := randomSet(rng, vocab, rng.Intn(8))
		var removed, added, kept []string
		DiffWalk(prev, next,
			func(v string) { removed = append(removed, v) },
			func(v string) { added = append(added, v) },
			func(v string) { kept = append(kept, v) })
		wantRemoved, wantAdded, wantKept := oracle{}, oracle{}, oracle{}
		for v := range op {
			if on[v] {
				wantKept[v] = true
			} else {
				wantRemoved[v] = true
			}
		}
		for v := range on {
			if !op[v] {
				wantAdded[v] = true
			}
		}
		checkSet(t, removed, wantRemoved, "removed")
		checkSet(t, added, wantAdded, "added")
		checkSet(t, kept, wantKept, "kept")
	}
}

// TestFromSlice checks sort+dedup construction.
func TestFromSlice(t *testing.T) {
	got := FromSlice([]string{"b", "a", "b", "c", "a"})
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("FromSlice = %v", got)
	}
	if FromSlice(nil) == nil && len(FromSlice(nil)) != 0 {
		t.Fatal("FromSlice(nil) not empty")
	}
}

type rec struct {
	key string
	n   int
}

func cmpRec(a, b rec) int { return strings.Compare(a.key, b.key) }

// TestFuncVariantsVsOracle drives keyed-record maintenance (insert
// replaces the payload for an existing key) against a map oracle.
func TestFuncVariantsVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s []rec
	o := map[string]int{}
	vocab := strings.Split("a b c d e f g h", " ")
	for step := 0; step < 1500; step++ {
		k := vocab[rng.Intn(len(vocab))]
		if rng.Intn(2) == 0 {
			n := rng.Intn(10)
			_, had := o[k]
			var fresh bool
			s, fresh = InsertFunc(s, rec{key: k, n: n}, cmpRec)
			if fresh == had {
				t.Fatalf("step %d: InsertFunc fresh=%v, oracle had=%v", step, fresh, had)
			}
			o[k] = n
		} else {
			_, had := o[k]
			var removed bool
			s, removed = RemoveFunc(s, rec{key: k}, cmpRec)
			if removed != had {
				t.Fatalf("step %d: RemoveFunc removed=%v, oracle had=%v", step, removed, had)
			}
			delete(o, k)
		}
		if len(s) != len(o) {
			t.Fatalf("step %d: %d records, oracle %d", step, len(s), len(o))
		}
		for i, r := range s {
			if i > 0 && s[i-1].key >= r.key {
				t.Fatalf("step %d: not sorted/distinct at %d: %v", step, i, s)
			}
			if o[r.key] != r.n {
				t.Fatalf("step %d: payload %q=%d, oracle %d", step, r.key, r.n, o[r.key])
			}
			if j, ok := IndexFunc(s, rec{key: r.key}, cmpRec); !ok || j != i {
				t.Fatalf("step %d: IndexFunc(%q) = (%d, %v), want (%d, true)", step, r.key, j, ok, i)
			}
		}
	}
}

// TestDiffWalkFuncKept checks the keyed diff reports payload-changing kept
// records with both snapshots.
func TestDiffWalkFuncKept(t *testing.T) {
	prev := []rec{{"a", 1}, {"b", 2}, {"d", 4}}
	next := []rec{{"b", 5}, {"c", 3}, {"d", 4}}
	var removed, added []string
	type keptPair struct{ p, n rec }
	var kept []keptPair
	DiffWalkFunc(prev, next, cmpRec,
		func(v rec) { removed = append(removed, v.key) },
		func(v rec) { added = append(added, v.key) },
		func(p, n rec) { kept = append(kept, keptPair{p, n}) })
	if !reflect.DeepEqual(removed, []string{"a"}) || !reflect.DeepEqual(added, []string{"c"}) {
		t.Fatalf("removed=%v added=%v", removed, added)
	}
	want := []keptPair{{rec{"b", 2}, rec{"b", 5}}, {rec{"d", 4}, rec{"d", 4}}}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("kept=%v, want %v", kept, want)
	}
}
