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

// FuzzDecodeWALOp drives the WAL payload decoder that replay and
// replication run on every record: DecodeWALOp never panics, and every op
// it accepts re-encodes in the current format and decodes to an equal op
// (the timestamp compared as an instant, which is all the format keeps).
// The only op it may not re-encode is one whose name no mutation path
// writes, which replay and replication reject. The checked-in corpus under
// testdata/fuzz holds one v1 JSON record, one v2 binary record, and a v1
// record timestamped beyond the span v2 can hold, which must be refused.
func FuzzDecodeWALOp(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := DecodeWALOp(data)
		if err != nil {
			return
		}
		enc, err := encodeWALOp(op)
		if err != nil {
			if _, known := walOpCodes[op.Op]; known {
				t.Fatalf("re-encoding accepted op %+v: %v", op, err)
			}
			return
		}
		back, err := DecodeWALOp(enc)
		if err != nil {
			t.Fatalf("decoding re-encoded op %+v: %v", op, err)
		}
		if !back.At.Equal(op.At) {
			t.Fatalf("timestamp %v came back as %v", op.At, back.At)
		}
		back.At = op.At
		if back != op {
			t.Fatalf("op %+v came back as %+v", op, back)
		}
	})
}
