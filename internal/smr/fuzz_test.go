package smr

import (
	"bytes"
	"testing"
	"time"
)

// FuzzLoadSnapshot drives the one snapshot loader with arbitrary input:
// LoadSnapshot never panics, and every input it accepts, saved again,
// loads into a fresh repository that saves identical bytes. The checked-in
// corpus under testdata/fuzz holds a version-1 file, a version-2 file that
// embeds the older relational copy, and one that does not.
func FuzzLoadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		load := func(data []byte) (*Repository, error) {
			r := newRepo(t)
			at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
			r.Wiki.SetClock(func() time.Time { return at })
			return r, r.LoadSnapshot(bytes.NewReader(data))
		}
		save := func(r *Repository) []byte {
			var buf bytes.Buffer
			if err := r.SaveSnapshot(&buf); err != nil {
				t.Fatalf("saving an accepted snapshot: %v", err)
			}
			return buf.Bytes()
		}
		r, err := load(data)
		if err != nil {
			return
		}
		first := save(r)
		again, err := load(first)
		if err != nil {
			t.Fatalf("reloading a saved snapshot: %v\n%s", err, first)
		}
		if second := save(again); !bytes.Equal(first, second) {
			t.Fatalf("save → load → save changed the bytes:\n%s\nvs\n%s", first, second)
		}
	})
}
