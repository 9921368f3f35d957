package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"sync"

	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/wal"
)

// The record codec. A stored record is one compact JSON object,
//
//	{"key":…,"addr":"<hex>","created_unix_nano":<n>,"report":<wire report>}
//
// and it is the corpus line Export writes, verbatim. encodeRecord is the
// only writer of these bytes and decodeRecord the only full reader; the
// index scan reads just the recordHead prefix fields.

// record is the decoded JSON payload of one stored result.
// Created (unix nanos) drives TTL expiry and oldest-first eviction; Addr is
// the hex SHA-256 of Key — redundant on disk (it recomputes from Key)
// but kept in the wire form so corpus consumers can verify content
// addresses without re-hashing. Report is nil when the payload has none.
type record struct {
	Key     string          `json:"key"`
	Addr    string          `json:"addr"`
	Created int64           `json:"created_unix_nano"`
	Report  *sim.WireReport `json:"report"`
}

// recordHead is the part of a record the index scan keeps: the report
// is skipped, not copied.
type recordHead struct {
	Key     string `json:"key"`
	Created int64  `json:"created_unix_nano"`
}

var (
	errNoKey      = errors.New("store: record has no key")
	errNoReport   = errors.New("store: record has no report")
	errTotalsOnly = errors.New("store: record holds a totals-only report")
)

// decodeRecord parses one record payload and rebuilds its report through
// sim.WireReport.Report, whose derived-figure checks reject a report no
// real one encodes to. A totals-only report is rejected as well: Put
// never stores one, because a record must replay the full report.
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

// frameBuf holds one encoded record as a wal frame: wal.HeaderLen
// reserved bytes, which wal.Log.AppendFrame fills in place, then the
// payload. Buffers are pooled across puts.
type frameBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

// maxPooledFrame keeps an outsized record's buffer out of the pool.
const maxPooledFrame = 1 << 20

var framePool = sync.Pool{New: func() any {
	fb := new(frameBuf)
	fb.enc = json.NewEncoder(&fb.Buffer)
	return fb
}}

// encodeRecord writes one record into a pooled frame in a single pass:
// the envelope by hand and the key and report each through one
// encoding/json encode. A *sim.WireReport has no MarshalJSON, so its
// bytes are not validated and compacted a second time, and they equal
// json.Marshal of the report it came from. The caller releases the
// frame once it is written.
func encodeRecord(key, addr string, created int64, rep *sim.WireReport) (*frameBuf, error) {
	fb := framePool.Get().(*frameBuf)
	fb.Reset()
	fb.Write(make([]byte, wal.HeaderLen))
	fb.WriteString(`{"key":`)
	if err := fb.encode(key); err != nil {
		fb.release()
		return nil, err
	}
	fb.WriteString(`,"addr":"`)
	fb.WriteString(addr)
	fb.WriteString(`","created_unix_nano":`)
	fb.Write(strconv.AppendInt(fb.AvailableBuffer(), created, 10))
	fb.WriteString(`,"report":`)
	if err := fb.encode(rep); err != nil {
		fb.release()
		return nil, err
	}
	fb.WriteByte('}')
	return fb, nil
}

// encode appends v's compact JSON, without the Encoder's trailing
// newline.
func (fb *frameBuf) encode(v any) error {
	if err := fb.enc.Encode(v); err != nil {
		return err
	}
	fb.Truncate(fb.Len() - 1)
	return nil
}

// frame is the whole record frame: header bytes, then the payload.
func (fb *frameBuf) frame() []byte { return fb.Bytes() }

func (fb *frameBuf) release() {
	if fb.Cap() <= maxPooledFrame {
		framePool.Put(fb)
	}
}
