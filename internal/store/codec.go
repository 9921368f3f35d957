package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
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
//     encodeRecordV2 and read back by decodeRecordV2. Its layout is
//
//     key     uvarint length + bytes
//     created varint (unix nanos)
//     arch, network  uvarint length + bytes each
//     phase   1 byte (0 inference, 1 training)
//     batch   varint
//     total   result
//     layers  uvarint count, then per layer:
//     name uvarint length + bytes, kind 1 byte, result,
//     utilization float, allocated cells varint
//
//     where a result is the six energy components in recordComponents
//     order and the latency, each a float (8 bytes, little-endian IEEE
//     754 bits), then the seven counts as varints.
//
// Figures the wire form derives (energy totals, per-image energy,
// throughput, network utilization) are not stored: they recompute
// exactly, so Wire of a decoded report is byte-identical to Wire of
// the one that was put, and Export renders a v2 record to the same
// corpus line a v1 store held.

// recordComponents is the order a result's energy components take in a
// v2 record. It is the format, not a view of metrics.Components: a new
// component needs a new segment version.
var recordComponents = [...]metrics.Component{
	metrics.DRAM, metrics.Buffer, metrics.RRAMArray, metrics.ADC, metrics.DAC, metrics.Digital,
}

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
	errTruncated  = errors.New("store: truncated record")
	errTrailing   = errors.New("store: trailing bytes after record")
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
// a report the JSON form could not carry (see checkRecord), so every
// record it writes decodes again.
func encodeRecordV2(dst []byte, key string, created int64, rep *sim.Report) ([]byte, error) {
	if err := checkRecord(key, rep); err != nil {
		return dst, err
	}
	dst = appendString(dst, key)
	dst = binary.AppendVarint(dst, created)
	dst = appendString(dst, rep.Arch)
	dst = appendString(dst, rep.Network)
	dst = append(dst, byte(rep.Phase))
	dst = binary.AppendVarint(dst, int64(rep.Batch))
	dst = appendResult(dst, &rep.Total)
	dst = binary.AppendUvarint(dst, uint64(len(rep.Layers)))
	for i := range rep.Layers {
		lr := &rep.Layers[i]
		dst = appendString(dst, lr.Layer.Name)
		dst = append(dst, byte(lr.Layer.Kind))
		dst = appendResult(dst, &lr.Result)
		dst = appendFloat(dst, lr.Utilization)
		dst = binary.AppendVarint(dst, lr.AllocatedCells)
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendResult(dst []byte, r *metrics.Result) []byte {
	for _, c := range recordComponents {
		dst = appendFloat(dst, r.Energy.Of(c))
	}
	dst = appendFloat(dst, r.Latency)
	for _, n := range [...]int64{
		r.Counts.RRAMReads, r.Counts.RRAMWrites, r.Counts.ADCConversions, r.Counts.DACConversions,
		r.Counts.BufferAccesses, r.Counts.DRAMAccesses, r.Counts.DigitalOps,
	} {
		dst = binary.AppendVarint(dst, n)
	}
	return dst
}

// minLayerLen is the fewest bytes one v2 layer can take: empty name,
// kind, eight floats and eight one-byte varints. It bounds the layer
// count a payload can claim before anything is allocated for it.
const minLayerLen = 1 + 1 + 8*8 + 8

// decodeRecordV2 parses one v2 record. It accepts exactly the records
// encodeRecordV2 can write: truncated or trailing bytes, an unknown
// phase or layer kind, and any report checkRecord refuses are errors.
func decodeRecordV2(payload []byte) (key string, created int64, rep *sim.Report, err error) {
	d := decoder{b: payload}
	key, created = d.string(), d.varint()
	rep = &sim.Report{Arch: d.string(), Network: d.string(), Phase: sim.Phase(d.byte()), Batch: int(d.varint())}
	rep.Total = d.result()
	if n := d.uvarint(); n > uint64(len(d.b)/minLayerLen) {
		d.fail(errTruncated)
	} else if n > 0 {
		rep.Layers = make([]sim.LayerResult, n)
	}
	for i := 0; d.err == nil && i < len(rep.Layers); i++ {
		lr := &rep.Layers[i]
		lr.Layer.Name = d.string()
		lr.Layer.Kind = nn.Kind(d.byte())
		lr.Result = d.result()
		lr.Utilization = d.float()
		lr.AllocatedCells = d.varint()
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail(errTrailing)
	}
	if d.err == nil {
		d.fail(checkRecord(key, rep))
	}
	if d.err != nil {
		return "", 0, nil, d.err
	}
	return key, created, rep, nil
}

// decodeHeadV2 reads only the key and timestamp that open a v2 record.
func decodeHeadV2(payload []byte) (key string, created int64, err error) {
	d := decoder{b: payload}
	key, created = d.string(), d.varint()
	if d.err == nil && key == "" {
		d.fail(errNoKey)
	}
	return key, created, d.err
}

// recordHeadOf reads the key and timestamp of one record payload, in
// the format its segment names: the index scan's view of it.
func recordHeadOf(payload []byte, v1 bool) (string, int64, error) {
	if !v1 {
		return decodeHeadV2(payload)
	}
	var head recordHead
	if err := json.Unmarshal(payload, &head); err != nil {
		return "", 0, err
	}
	if head.Key == "" {
		return "", 0, errNoKey
	}
	return head.Key, head.Created, nil
}

// decoder reads a v2 record front to back. The first error sticks:
// every later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	d.advance(n)
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	d.advance(n)
	return v
}

// advance consumes a varint of n bytes, as binary.Uvarint and Varint
// report it. A varint that is malformed, or longer than its value needs
// (a zero final byte), fails: the encoder never writes one, and every
// accepted record must re-encode to its own bytes.
func (d *decoder) advance(n int) {
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail(errTruncated)
		return
	}
	d.b = d.b[n:]
}

func (d *decoder) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail(errTruncated)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// result reads one result. Each energy component is checked before it
// is deposited, because metrics.Energy.Add panics on a negative or NaN
// one; checkRecord re-checks the rest once the report is whole.
func (d *decoder) result() metrics.Result {
	var r metrics.Result
	for _, c := range recordComponents {
		v := d.float()
		if !validEnergy(v) {
			d.fail(fmt.Errorf("store: invalid %v energy %v", c, v))
			return r
		}
		r.Energy.Add(c, v)
	}
	r.Latency = d.float()
	for _, p := range [...]*int64{
		&r.Counts.RRAMReads, &r.Counts.RRAMWrites, &r.Counts.ADCConversions, &r.Counts.DACConversions,
		&r.Counts.BufferAccesses, &r.Counts.DRAMAccesses, &r.Counts.DigitalOps,
	} {
		*p = d.varint()
	}
	return r
}

// validEnergy reports whether an energy component survives the JSON
// form: finite, non-negative and not negative zero.
func validEnergy(v float64) bool { return finite(v) && !math.Signbit(v) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkRecord refuses a record the JSON form cannot carry, so that a v2
// record always exports to a corpus line Import accepts and re-imports
// to the same bytes: an empty key; a string that is not valid UTF-8
// (encoding/json would rewrite it); a phase or layer kind outside the
// defined ones; a stored float that is NaN or ±Inf; an energy component
// that is negative or −0; or a derived figure (an energy total,
// per-image energy, throughput, utilization) that overflows.
func checkRecord(key string, rep *sim.Report) error {
	if key == "" {
		return errNoKey
	}
	if rep.TotalsOnly() {
		return errTotalsOnly
	}
	if rep.Phase != sim.Inference && rep.Phase != sim.Training {
		return fmt.Errorf("store: unknown phase %d", int(rep.Phase))
	}
	if !utf8.ValidString(key) || !utf8.ValidString(rep.Arch) || !utf8.ValidString(rep.Network) {
		return errors.New("store: record string is not valid UTF-8")
	}
	if err := checkResult(&rep.Total); err != nil {
		return err
	}
	for i := range rep.Layers {
		lr := &rep.Layers[i]
		if lr.Layer.Kind < nn.Conv || lr.Layer.Kind > nn.Add {
			return fmt.Errorf("store: unknown layer kind %d", int(lr.Layer.Kind))
		}
		if !utf8.ValidString(lr.Layer.Name) {
			return errors.New("store: layer name is not valid UTF-8")
		}
		if !finite(lr.Utilization) {
			return fmt.Errorf("store: layer %q utilization %v", lr.Layer.Name, lr.Utilization)
		}
		if err := checkResult(&lr.Result); err != nil {
			return err
		}
	}
	perImage, _ := rep.EnergyPerImage()
	if !finite(perImage) || !finite(rep.Throughput()) || !finite(rep.Utilization()) {
		return errors.New("store: report has a non-finite derived figure")
	}
	return nil
}

func checkResult(r *metrics.Result) error {
	for _, c := range recordComponents {
		if v := r.Energy.Of(c); !validEnergy(v) {
			return fmt.Errorf("store: invalid %v energy %v", c, v)
		}
	}
	if !finite(r.Latency) || !finite(r.Energy.Total()) {
		return fmt.Errorf("store: non-finite result (latency %v, energy %v)", r.Latency, r.Energy.Total())
	}
	return nil
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
