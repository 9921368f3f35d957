package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/inca-arch/inca/internal/bin"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/wal"
)

// The record codecs. Segments store records in one of two formats,
// named by the segment's magic:
//
//   - INCASTO1 (read only): one compact JSON object per record,
//
//     {"key":…,"addr":"<hex>","created_unix_nano":<n>,"report":<wire report>}
//
//     which is also the corpus line Export writes for every record.
//     encodeRecord is the only writer of these bytes and decodeRecord the
//     only reader;
//   - INCASTO2: a binary record written straight from a *sim.Report by
//     encodeRecordV2 and read back by decodeRecordV2, in internal/bin's
//     primitives. Its layout is
//
//     key     string (uvarint length + bytes)
//     created varint (unix nanos)
//     body    the report's body (see sim.Report.AppendBody)
//
//     The body leaves out the figures the wire form derives, which
//     recompute exactly, so Export renders a v2 record to the same
//     corpus line a v1 store held.

// record is the decoded JSON payload of one stored result.
// Created (unix nanos) drives TTL expiry and oldest-first eviction; Addr is
// the hex SHA-256 of Key — redundant (it recomputes from Key) but kept
// in the corpus line so consumers can verify content addresses without
// re-hashing. Report is nil when the payload has none.
type record struct {
	Key     string          `json:"key"`
	Addr    string          `json:"addr"`
	Created int64           `json:"created_unix_nano"`
	Report  *sim.WireReport `json:"report"`
}

// recordHead is the part of a JSON record the index scan keeps: the
// report is skipped, not copied.
type recordHead struct {
	Key     string `json:"key"`
	Created int64  `json:"created_unix_nano"`
}

var (
	errNoKey      = errors.New("store: record has no key")
	errNoReport   = errors.New("store: record has no report")
	errTotalsOnly = errors.New("store: record holds a totals-only report")
)

// decodeRecord parses one JSON record payload and rebuilds its report
// through sim.WireReport.Report, whose derived-figure checks reject a
// report no real one encodes to. A totals-only report is rejected as
// well: Put never stores one, because a record must replay the full
// report.
func decodeRecord(payload []byte) (record, *sim.Report, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, nil, err
	}
	if rec.Key == "" {
		return rec, nil, errNoKey
	}
	if rec.Report == nil {
		return rec, nil, errNoReport
	}
	rep, err := rec.Report.Report()
	if err != nil {
		return rec, nil, err
	}
	if rep.TotalsOnly() {
		return rec, nil, errTotalsOnly
	}
	return rec, rep, nil
}

// encodeRecord appends one JSON record to buf: the envelope by hand
// and the key and report each through one encoding/json encode. A
// *sim.WireReport has no MarshalJSON, so its bytes are not validated
// and compacted a second time, and they equal json.Marshal of the
// report it came from.
func encodeRecord(buf *bytes.Buffer, key, addr string, created int64, rep *sim.WireReport) error {
	enc := json.NewEncoder(buf)
	buf.WriteString(`{"key":`)
	if err := encodeCompact(buf, enc, key); err != nil {
		return err
	}
	buf.WriteString(`,"addr":"`)
	buf.WriteString(addr)
	buf.WriteString(`","created_unix_nano":`)
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), created, 10))
	buf.WriteString(`,"report":`)
	if err := encodeCompact(buf, enc, rep); err != nil {
		return err
	}
	buf.WriteByte('}')
	return nil
}

// encodeCompact appends v's compact JSON through enc, which writes to
// buf, without the Encoder's trailing newline.
func encodeCompact(buf *bytes.Buffer, enc *json.Encoder, v any) error {
	if err := enc.Encode(v); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1)
	return nil
}

// encodeRecordV2 appends the v2 record of one report to dst. It refuses
// a key or report the JSON form could not carry (see checkKey and
// sim.Report.AppendBody), so every record it writes decodes again.
func encodeRecordV2(dst []byte, key string, created int64, rep *sim.Report) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return dst, err
	}
	return rep.AppendBody(binary.AppendVarint(bin.AppendString(dst, key), created))
}

// decodeRecordV2 parses one v2 record. It accepts exactly the records
// encodeRecordV2 can write: a key checkKey refuses, a body sim.ReadBody
// refuses, and trailing bytes are errors.
func decodeRecordV2(payload []byte) (key string, created int64, rep *sim.Report, err error) {
	r := bin.NewReader(payload)
	key, created = r.Str(), r.Varint()
	r.Fail(checkKey(key))
	rep = sim.ReadBody(r)
	if err := r.Done(); err != nil {
		return "", 0, nil, fmt.Errorf("store: decoding record: %w", err)
	}
	return key, created, rep, nil
}

// checkKey refuses a key a record cannot carry: an empty one, or one
// that is not valid UTF-8, which encoding/json would rewrite in the
// corpus line.
func checkKey(key string) error {
	if key == "" {
		return errNoKey
	}
	if !utf8.ValidString(key) {
		return errors.New("store: record key is not valid UTF-8")
	}
	return nil
}

// recordHeadOf reads the key and timestamp that open one record
// payload, in the format its segment names: the index scan's view of
// it, which skips the report.
func recordHeadOf(payload []byte, v1 bool) (string, int64, error) {
	var head recordHead
	if v1 {
		if err := json.Unmarshal(payload, &head); err != nil {
			return "", 0, err
		}
	} else {
		r := bin.NewReader(payload)
		head.Key, head.Created = r.Str(), r.Varint()
		if err := r.Err(); err != nil {
			return "", 0, err
		}
	}
	if head.Key == "" {
		return "", 0, errNoKey
	}
	return head.Key, head.Created, nil
}

// maxPooledFrame keeps an outsized record's buffer out of the pool.
const maxPooledFrame = 1 << 20

// framePool holds buffers for v2 record frames across puts.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, wal.HeaderLen, 8<<10)
	return &b
}}

// encodeFrame encodes one v2 record as a wal frame into a pooled
// buffer: wal.HeaderLen reserved bytes, which wal.Log.AppendFrame fills
// in place, then the payload. The caller hands the buffer back with
// releaseFrame once it is written.
func encodeFrame(key string, created int64, rep *sim.Report) (*[]byte, error) {
	fb := framePool.Get().(*[]byte)
	frame, err := encodeRecordV2((*fb)[:wal.HeaderLen], key, created, rep)
	*fb = frame
	if err != nil {
		releaseFrame(fb)
		return nil, err
	}
	return fb, nil
}

func releaseFrame(fb *[]byte) {
	if cap(*fb) <= maxPooledFrame {
		framePool.Put(fb)
	}
}
