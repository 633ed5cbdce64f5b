package smr

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"
)

// WAL record payload codec. Two formats coexist in one log:
//
//   - v1: the JSON encoding of WALOp — the original format. Detected by
//     its first byte, '{', which no v2 record can start with.
//   - v2: a binary encoding, roughly 3× smaller, written by every current
//     mutation path:
//
//     [0x02][op code][title][author][text][comment][tag][timestamp]
//
//     where op code is 1 (put), 2 (del) or 3 (tag), each string is a
//     uvarint byte length followed by that many UTF-8 bytes, and the
//     timestamp is one flag byte (0 = zero time, 1 = present) followed —
//     when present — by a signed varint of Unix nanoseconds. Decoded
//     timestamps are UTC; only the instant is preserved, which is all
//     replay and the tag rows ever read.
//
// The WAL's own framing (length prefix + CRC) guarantees a decoder only
// ever sees whole payloads; the decoder still bounds-checks everything so
// a corrupt-but-CRC-valid payload (or a hostile replication feed) fails
// cleanly instead of panicking.

// walFormatV2 is the version prefix byte of a binary record.
const walFormatV2 = 0x02

// v2 op codes.
const (
	walCodePut  = 1
	walCodeDel  = 2
	walCodeTag  = 3
	walCodeLast = walCodeTag
)

var walOpCodes = map[string]byte{
	walOpPut:    walCodePut,
	walOpDelete: walCodeDel,
	walOpTag:    walCodeTag,
}

var walCodeOps = [walCodeLast + 1]string{
	walCodePut: walOpPut,
	walCodeDel: walOpDelete,
	walCodeTag: walOpTag,
}

// encodeWALOp renders op in the v2 binary format.
func encodeWALOp(op WALOp) ([]byte, error) {
	code, ok := walOpCodes[op.Op]
	if !ok {
		return nil, fmt.Errorf("smr: encoding unknown wal op %q", op.Op)
	}
	buf := make([]byte, 2, 2+len(op.Title)+len(op.Author)+len(op.Text)+len(op.Comment)+len(op.Tag)+16)
	buf[0] = walFormatV2
	buf[1] = code
	for _, s := range []string{op.Title, op.Author, op.Text, op.Comment, op.Tag} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	if op.At.IsZero() {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, op.At.UnixNano())
	}
	return buf, nil
}

// DecodeWALOp decodes one WAL record payload in either format: v1 JSON
// (first byte '{') or v2 binary (first byte 0x02). Exported so feed
// consumers and debugging tools can interpret shipped records without
// re-implementing the format.
func DecodeWALOp(data []byte) (WALOp, error) {
	if len(data) == 0 {
		return WALOp{}, fmt.Errorf("smr: empty wal record payload")
	}
	switch data[0] {
	case '{':
		var op WALOp
		if err := json.Unmarshal(data, &op); err != nil {
			return WALOp{}, fmt.Errorf("smr: decoding v1 wal record: %w", err)
		}
		// v2 keeps Unix nanoseconds, which span only 1677–2262, and a
		// follower re-journals what it applies in v2, so a v1 time
		// outside that span would come back as another instant.
		if !op.At.IsZero() && !time.Unix(0, op.At.UnixNano()).Equal(op.At) {
			return WALOp{}, fmt.Errorf("smr: v1 wal record timestamp %s out of range", op.At)
		}
		return op, nil
	case walFormatV2:
		return decodeWALOpV2(data)
	}
	return WALOp{}, fmt.Errorf("smr: unknown wal record format 0x%02x", data[0])
}

func decodeWALOpV2(data []byte) (WALOp, error) {
	if len(data) < 2 {
		return WALOp{}, fmt.Errorf("smr: truncated v2 wal record")
	}
	code := data[1]
	if code < 1 || code > walCodeLast {
		return WALOp{}, fmt.Errorf("smr: unknown v2 wal op code %d", code)
	}
	op := WALOp{Op: walCodeOps[code]}
	rest := data[2:]
	for _, dst := range []*string{&op.Title, &op.Author, &op.Text, &op.Comment, &op.Tag} {
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w) {
			return WALOp{}, fmt.Errorf("smr: truncated string in v2 wal record")
		}
		*dst = string(rest[w : w+int(n)])
		rest = rest[w+int(n):]
	}
	if len(rest) < 1 {
		return WALOp{}, fmt.Errorf("smr: v2 wal record missing timestamp")
	}
	switch rest[0] {
	case 0:
		rest = rest[1:]
	case 1:
		nanos, w := binary.Varint(rest[1:])
		if w <= 0 {
			return WALOp{}, fmt.Errorf("smr: truncated timestamp in v2 wal record")
		}
		op.At = time.Unix(0, nanos).UTC()
		rest = rest[1+w:]
	default:
		return WALOp{}, fmt.Errorf("smr: bad timestamp flag %d in v2 wal record", rest[0])
	}
	if len(rest) != 0 {
		return WALOp{}, fmt.Errorf("smr: %d trailing bytes in v2 wal record", len(rest))
	}
	return op, nil
}

// walRecordFormat classifies a raw payload for the per-format counters.
func walRecordFormat(data []byte) byte {
	if len(data) > 0 && data[0] == walFormatV2 {
		return walFormatV2
	}
	return 1
}
