package relational

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refIndex is the flat sorted-slice index the leaf-chunked Index
// replaced: every method is a linear or binary search over one keys/ids
// pair, simple enough to be its own specification. TestIndexMatchesFlat
// runs both through the same operations.
type refIndex struct {
	column string
	pos    int
	unique bool
	keys   []Value
	ids    []int64
}

func (ix *refIndex) search(v Value) int {
	return sort.Search(len(ix.keys), func(i int) bool { return Compare(ix.keys[i], v) >= 0 })
}

func (ix *refIndex) searchAfter(v Value) int {
	return sort.Search(len(ix.keys), func(i int) bool { return Compare(ix.keys[i], v) > 0 })
}

func (ix *refIndex) nullCount() int {
	return sort.Search(len(ix.keys), func(i int) bool { return !ix.keys[i].IsNull() })
}

// Insert lands a new entry in front of its equal keys, so with increasing
// ids an equal-key run holds its ids descending.
func (ix *refIndex) Insert(v Value, id int64) error {
	p := ix.search(v)
	if ix.unique && !v.IsNull() && p < len(ix.keys) && Compare(ix.keys[p], v) == 0 {
		return fmt.Errorf("relational: unique index %s violated by %s", ix.column, v)
	}
	ix.keys = slices.Insert(ix.keys, p, v)
	ix.ids = slices.Insert(ix.ids, p, id)
	return nil
}

func (ix *refIndex) bulkBuild(rows map[int64]Row) error {
	ids := make([]int64, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if c := Compare(rows[ids[i]][ix.pos], rows[ids[j]][ix.pos]); c != 0 {
			return c < 0
		}
		return ids[i] > ids[j]
	})
	keys := make([]Value, len(ids))
	for i, id := range ids {
		keys[i] = rows[id][ix.pos]
	}
	if ix.unique {
		for i := 1; i < len(keys); i++ {
			if !keys[i].IsNull() && Compare(keys[i-1], keys[i]) == 0 {
				return fmt.Errorf("relational: unique index %s violated by %s", ix.column, keys[i])
			}
		}
	}
	ix.keys, ix.ids = keys, ids
	return nil
}

// Delete scans the whole equal-key run for id.
func (ix *refIndex) Delete(v Value, id int64) bool {
	for p := ix.search(v); p < len(ix.keys) && Compare(ix.keys[p], v) == 0; p++ {
		if ix.ids[p] == id {
			ix.keys = slices.Delete(ix.keys, p, p+1)
			ix.ids = slices.Delete(ix.ids, p, p+1)
			return true
		}
	}
	return false
}

func (ix *refIndex) Lookup(v Value) []int64 {
	if v.IsNull() {
		return nil
	}
	var out []int64
	for p := ix.search(v); p < len(ix.keys) && Compare(ix.keys[p], v) == 0; p++ {
		out = append(out, ix.ids[p])
	}
	return out
}

func (ix *refIndex) Range(lo Value, hasLo bool, hi Value, hasHi bool) []int64 {
	start := 0
	if hasLo {
		start = ix.search(lo)
	}
	var out []int64
	for p := start; p < len(ix.keys); p++ {
		k := ix.keys[p]
		if k.IsNull() {
			continue
		}
		if hasHi && Compare(k, hi) > 0 {
			break
		}
		out = append(out, ix.ids[p])
	}
	return out
}

func (ix *refIndex) CountEq(v Value) int {
	if v.IsNull() {
		return 0
	}
	return ix.searchAfter(v) - ix.search(v)
}

func (ix *refIndex) CountRange(lo Value, hasLo bool, hi Value, hasHi bool) int {
	start := ix.nullCount()
	if hasLo {
		if s := ix.search(lo); s > start {
			start = s
		}
	}
	end := len(ix.keys)
	if hasHi {
		end = ix.searchAfter(hi)
	}
	if end < start {
		return 0
	}
	return end - start
}

func (ix *refIndex) DistinctKeys() int {
	n := len(ix.keys)
	if n == 0 {
		return 0
	}
	if n <= 256 {
		d := 0
		for i := 0; i < n; i++ {
			if ix.keys[i].IsNull() {
				continue
			}
			if d == 0 || Compare(ix.keys[i-1], ix.keys[i]) != 0 {
				d++
			}
		}
		return d
	}
	const probes = 64
	hits := 1
	step := n / probes
	for i := step; i < n; i += step {
		if !ix.keys[i].IsNull() && Compare(ix.keys[i-1], ix.keys[i]) != 0 {
			hits++
		}
	}
	est := hits * step
	if est > n {
		est = n
	}
	return est
}

// Walk copies each equal-key run and sorts its ids ascending.
func (ix *refIndex) Walk(desc bool, fn func(key Value, ids []int64) bool) {
	n := len(ix.keys)
	emit := func(start, end int) bool {
		ids := ix.ids[start:end]
		if len(ids) > 1 {
			ids = slices.Clone(ids)
			slices.Sort(ids)
		}
		return fn(ix.keys[start], ids)
	}
	if !desc {
		for start := 0; start < n; {
			end := start + 1
			for end < n && Compare(ix.keys[end-1], ix.keys[end]) == 0 {
				end++
			}
			if !emit(start, end) {
				return
			}
			start = end
		}
		return
	}
	for end := n; end > 0; {
		start := end - 1
		for start > 0 && Compare(ix.keys[start-1], ix.keys[start]) == 0 {
			start--
		}
		if !emit(start, end) {
			return
		}
		end = start
	}
}

// walkLog is a recorded Walk: each run's key and id count, and every id
// in the order the callbacks presented them.
type walkLog struct {
	keys []Value
	lens []int
	ids  []int64
}

// logWalk records a walk, stopping after limit runs when limit > 0.
func logWalk(walk func(bool, func(Value, []int64) bool), desc bool, limit int) walkLog {
	var w walkLog
	walk(desc, func(k Value, ids []int64) bool {
		w.keys = append(w.keys, k)
		w.lens = append(w.lens, len(ids))
		w.ids = append(w.ids, ids...)
		return limit <= 0 || len(w.keys) < limit
	})
	return w
}

// sameWalk compares two walks; keys of one run compare equal, so they are
// checked with Compare rather than by representation.
func sameWalk(a, b walkLog) bool {
	return slices.EqualFunc(a.keys, b.keys, func(x, y Value) bool { return Compare(x, y) == 0 }) &&
		slices.Equal(a.lens, b.lens) && slices.Equal(a.ids, b.ids)
}

// checkSameIndex compares every read of ix against ref.
func checkSameIndex(t *testing.T, step int, ix *Index, ref *refIndex, probes []Value) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("op %d: %s = %v, flat index says %v", step, what, got, want)
	}
	if ix.n != len(ref.keys) {
		fail("Len", ix.n, len(ref.keys))
	}
	if got, want := ix.nullCount(), ref.nullCount(); got != want {
		fail("nullCount", got, want)
	}
	if got, want := ix.DistinctKeys(), ref.DistinctKeys(); got != want {
		fail("DistinctKeys", got, want)
	}
	for _, v := range probes {
		if got, want := ix.Lookup(v), ref.Lookup(v); !slices.Equal(got, want) {
			fail(fmt.Sprintf("Lookup(%s)", v), got, want)
		}
		if got, want := ix.CountEq(v), ref.CountEq(v); got != want {
			fail(fmt.Sprintf("CountEq(%s)", v), got, want)
		}
	}
	// Every bound is either omitted or a probe, so both ends are exercised
	// open and closed, including NULL bounds and bounds between keys.
	for i := 0; i < 2; i++ {
		lo, hi := probes[(step+i)%len(probes)], probes[(step*7+i*3)%len(probes)]
		for _, has := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			what := fmt.Sprintf("(%s %v, %s %v)", lo, has[0], hi, has[1])
			if got, want := ix.Range(lo, has[0], hi, has[1]), ref.Range(lo, has[0], hi, has[1]); !slices.Equal(got, want) {
				fail("Range"+what, got, want)
			}
			if got, want := ix.CountRange(lo, has[0], hi, has[1]), ref.CountRange(lo, has[0], hi, has[1]); got != want {
				fail("CountRange"+what, got, want)
			}
		}
	}
	for _, desc := range []bool{false, true} {
		for _, limit := range []int{0, 3} {
			got, want := logWalk(ix.Walk, desc, limit), logWalk(ref.Walk, desc, limit)
			if !sameWalk(got, want) {
				fail(fmt.Sprintf("Walk(desc=%v, limit=%d)", desc, limit), got, want)
			}
		}
	}
}

// TestIndexMatchesFlat runs a seeded stream of inserts (many duplicates,
// NULLs, unique violations), deletes of present and absent entries and
// bulk builds through the leaf-chunked Index and the flat reference, and
// compares every read after every operation. The stream grows the index
// to many leaves and then drains it, so leaves split, merge and empty at
// the production leaf size.
func TestIndexMatchesFlat(t *testing.T) {
	for _, c := range []struct {
		name   string
		unique bool
		keys   int // distinct non-NULL keys drawn from
	}{
		{"duplicates", false, 12},
		{"unique", true, 3000},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ix := NewIndex("v", 0, c.unique)
			ref := &refIndex{column: "v", unique: c.unique}
			key := func() Value {
				switch k := rng.Intn(c.keys + 1); {
				case k == c.keys:
					return Null()
				case k%5 == 0:
					return Float(float64(k)) // compares equal to Int(k)
				default:
					return Int(int64(k))
				}
			}
			probes := []Value{Null(), Int(-1), Float(0.5), Int(int64(c.keys))}
			for k := 0; k < c.keys; k += max(1, c.keys/12) {
				probes = append(probes, Int(int64(k)), Float(float64(k)+0.5))
			}
			live := map[int64]Value{}
			var nextID int64
			maxLeaves, merged := 0, false
			const ops = 3000
			for step := 0; step < ops; step++ {
				// Grow for the first half, drain for the second.
				insertShare := 0.85
				if step >= ops/2 {
					insertShare = 0.1
				}
				switch r := rng.Float64(); {
				case r < 0.002:
					rows := make(map[int64]Row, len(live))
					for id, v := range live {
						rows[id] = Row{v}
					}
					if rng.Intn(4) == 0 { // a foreign row set, unique clash likely
						rows = map[int64]Row{}
						for i := 0; i < 300; i++ {
							rows[nextID] = Row{key()}
							nextID++
						}
					}
					gotErr, wantErr := ix.bulkBuild(rows), ref.bulkBuild(rows)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("op %d: bulkBuild error %v, flat index says %v", step, gotErr, wantErr)
					}
					if gotErr == nil {
						live = map[int64]Value{}
						for id, row := range rows {
							live[id] = row[0]
						}
					}
				case r < insertShare:
					v, id := key(), nextID
					nextID++
					gotErr, wantErr := ix.Insert(v, id), ref.Insert(v, id)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("op %d: Insert(%s, %d) error %v, flat index says %v", step, v, id, gotErr, wantErr)
					}
					if gotErr == nil {
						live[id] = v
					}
				case len(live) > 0 && rng.Intn(4) > 0:
					// Delete a present entry: the smallest live id above a
					// random point, so the choice is seeded, not map order.
					at, id := rng.Int63n(nextID), int64(-1)
					for lid := range live {
						if (lid >= at && (id < 0 || lid < id || id < at)) || (id < 0 && lid < at) {
							id = lid
						}
					}
					v := live[id]
					before := len(ix.leaves)
					if !ix.Delete(v, id) || !ref.Delete(v, id) {
						t.Fatalf("op %d: Delete(%s, %d) of a present entry failed", step, v, id)
					}
					merged = merged || len(ix.leaves) < before
					delete(live, id)
				default:
					// Delete an absent entry: an unused id, or a live id
					// under a key it was not stored with.
					v, id := key(), nextID+int64(rng.Intn(3))
					if rng.Intn(2) == 0 && nextID > 0 {
						id = rng.Int63n(nextID)
						if lv, ok := live[id]; ok && Compare(lv, v) == 0 {
							v = Int(-5)
						}
					}
					if got, want := ix.Delete(v, id), ref.Delete(v, id); got || want {
						t.Fatalf("op %d: Delete(%s, %d) of an absent entry = %v, flat index says %v", step, v, id, got, want)
					}
				}
				maxLeaves = max(maxLeaves, len(ix.leaves))
				checkSameIndex(t, step, ix, ref, probes)
			}
			t.Logf("peak %d leaves, %d entries left", maxLeaves, ix.n)
			if maxLeaves < 8 || !merged {
				t.Fatalf("stream reached %d leaves, merged or emptied a leaf: %v; it must split and drain leaves to test them", maxLeaves, merged)
			}
		})
	}
}

// TestAddIndexMatchesBulkBuild backfills an index over a populated table
// with long equal-key runs: it must hold exactly the entries a bulk build
// and one-by-one inserts in id order produce, each run ids descending, and
// every row delete must find its entry.
func TestAddIndexMatchesBulkBuild(t *testing.T) {
	db := NewDB()
	mustCreate(t, db, "t", []Column{{Name: "k", Type: TypeInt}})
	tab, _ := db.Table("t")
	for i := 0; i < 300; i++ {
		v := Int(int64(i % 3))
		switch {
		case i < 50:
			v = Int(7) // one 50-row run
		case i%17 == 0:
			v = Null()
		}
		if _, err := tab.Insert(Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.AddIndex("k"); err != nil {
		t.Fatal(err)
	}
	added, _ := tab.Index("k")

	bulk := NewIndex("k", 0, false)
	if err := bulk.bulkBuild(tab.rows); err != nil {
		t.Fatal(err)
	}
	seq := NewIndex("k", 0, false)
	tab.Scan(func(id int64, row Row) bool {
		if err := seq.Insert(row[0], id); err != nil {
			t.Fatal(err)
		}
		return true
	})
	entries := func(ix *Index) []entry {
		var out []entry
		ix.scan(0, 0, func(e *entry) bool { out = append(out, *e); return true })
		return out
	}
	same := func(a, b entry) bool { return a.id == b.id && Compare(a.key, b.key) == 0 }
	got := entries(added)
	if !slices.EqualFunc(got, entries(bulk), same) || !slices.EqualFunc(got, entries(seq), same) {
		t.Fatalf("AddIndex entries differ from a bulk build / sequential inserts:\n%v", got)
	}
	run := added.Lookup(Int(7))
	if len(run) != 50 || !slices.IsSortedFunc(run, func(a, b int64) int { return int(b - a) }) {
		t.Fatalf("Lookup(7) = %v, want 50 ids descending", run)
	}
	tab.Scan(func(id int64, row Row) bool {
		if !tab.Delete(id) {
			t.Fatalf("Delete(%d) found no row", id)
		}
		return true
	})
	if added.n != 0 {
		t.Fatalf("%d index entries left after deleting every row", added.n)
	}
}
