package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
	"github.com/inca-arch/inca/internal/wal"
)

// twoPassRecord is the record encoding the codec replaced: marshal the
// report through Report.MarshalJSON, then marshal the envelope around
// it as a json.RawMessage. Segments and corpora written that way must
// stay byte-identical to what encodeRecord writes.
func twoPassRecord(t testing.TB, key string, created int64, rep *sim.Report) []byte {
	t.Helper()
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(struct {
		Key     string          `json:"key"`
		Addr    string          `json:"addr"`
		Created int64           `json:"created_unix_nano"`
		Report  json.RawMessage `json:"report"`
	}{key, addr(key), created, body})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// keyedReport is one simulated report under its canonical cell key.
type keyedReport struct {
	key string
	rep *sim.Report
}

// simulate runs the cross product of dataflow backends, networks and
// phases through the sweep engine.
func simulate(t testing.TB, dataflows []string, nets []*nn.Network, phases []sim.Phase) []keyedReport {
	t.Helper()
	var archs []sweep.Arch
	for _, id := range dataflows {
		a, err := sweep.DataflowArch(id)
		if err != nil {
			t.Fatal(err)
		}
		archs = append(archs, a)
	}
	results, err := sweep.Run(context.Background(), sweep.Plan{Archs: archs, Networks: nets, Phases: phases}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]keyedReport, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Cell.Key(), r.Err)
		}
		out[i] = keyedReport{r.Cell.Key(), r.Report}
	}
	return out
}

// replayClock returns a store clock that hands out the given times in
// order, one per call, and then keeps returning the last one.
func replayClock(times []int64) func() time.Time {
	return func() time.Time {
		now := time.Unix(0, times[0])
		if len(times) > 1 {
			times = times[1:]
		}
		return now
	}
}

// TestRecordCodecMatchesTwoPass pins the one-pass JSON codec to the
// two-pass encoding byte for byte, over every backend the paper
// compares, deep and shallow networks, both phases, and keys that
// encoding/json escapes (<, >, &, U+2028 and U+2029). It also pins the
// corpus a store exports after Put to the two-pass records, one per
// line in key order: the segment bytes are v2 records now, and the
// export is the format that stays frozen.
func TestRecordCodecMatchesTwoPass(t *testing.T) {
	cells := simulate(t, []string{"is", "ws", "gpu"},
		[]*nn.Network{nn.ResNet50(), nn.VGG16(), nn.LeNet5()},
		[]sim.Phase{sim.Inference, sim.Training})
	const created = 1_700_000_000_123_456_789
	var times []int64
	var lines []string
	for _, c := range cells {
		for _, key := range []string{c.key, c.key + "|<b>&</b>", "line\u2028sep\u2029" + c.key} {
			var buf bytes.Buffer
			if err := encodeRecord(&buf, key, addr(key), created, c.rep.Wire()); err != nil {
				t.Fatal(err)
			}
			got, old := buf.Bytes(), twoPassRecord(t, key, created, c.rep)
			if !bytes.Equal(got, old) {
				t.Fatalf("key %q: one-pass record differs from two-pass:\n got %.200s\nwant %.200s", key, got, old)
			}
		}
		times = append(times, created+int64(len(times)))
		lines = append(lines, string(twoPassRecord(t, c.key, times[len(times)-1], c.rep))+"\n")
	}
	sort.Strings(lines)

	s := mustOpen(t, t.TempDir(), Options{SegmentMaxBytes: 1 << 30, MaxBytes: 1 << 30, now: replayClock(times)})
	for _, c := range cells {
		s.Put(c.key, c.rep)
	}
	var export bytes.Buffer
	if _, err := s.Export(&export); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(lines, ""); export.String() != want {
		t.Fatalf("export after Put (%d bytes) differs from the two-pass records (%d bytes)", export.Len(), len(want))
	}
}

// TestOpensTwoPassSegments opens a store directory written by the
// two-pass encoder (testdata/twopass: is/ws/gpu × LeNet5 × both phases,
// plus one record under a key that needs escaping). Every record must
// index and Get back the report it holds; Export must reproduce the
// stored records verbatim; and a store the served reports are re-put
// into with the same timestamps must export the same bytes.
func TestOpensTwoPassSegments(t *testing.T) {
	const name = "seg-000000.log"
	old, err := os.ReadFile(filepath.Join("testdata", "twopass", name))
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	if _, err := wal.Scan(bytes.NewReader(old), magicV1, func(_ int64, p []byte) bool {
		payloads = append(payloads, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 7 {
		t.Fatalf("testdata segment holds %d records, want 7", len(payloads))
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	if st := s.Stats(); st.Entries != len(payloads) || st.TornRecords != 0 {
		t.Fatalf("stats after open = %+v, want %d entries and no torn records", st, len(payloads))
	}
	type stored struct {
		Key     string          `json:"key"`
		Created int64           `json:"created_unix_nano"`
		Report  json.RawMessage `json:"report"`
		payload []byte
	}
	recs := make([]stored, len(payloads))
	escaped := false
	for i, p := range payloads {
		rec := &recs[i]
		if err := json.Unmarshal(p, rec); err != nil {
			t.Fatal(err)
		}
		rec.payload = p
		escaped = escaped || strings.ContainsAny(rec.Key, "<>&\u2028")
		rep, ok := s.Get(rec.Key)
		if !ok {
			t.Fatalf("Get(%q) missed", rec.Key)
		}
		if got, err := json.Marshal(rep); err != nil || !bytes.Equal(got, rec.Report) {
			t.Fatalf("Get(%q) = %.200s, %v; stored report %.200s", rec.Key, got, err, rec.Report)
		}
	}
	if !escaped {
		t.Fatal("testdata holds no key that needs escaping")
	}

	// Re-put in the original order with the original timestamps.
	times := make([]int64, len(recs))
	for i, rec := range recs {
		times[i] = rec.Created
	}
	s2 := mustOpen(t, t.TempDir(), Options{now: replayClock(times)})
	for _, rec := range recs {
		rep, _ := s.Get(rec.Key)
		s2.Put(rec.Key, rep)
	}

	var export, want bytes.Buffer
	if _, err := s.Export(&export); err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	for _, rec := range recs {
		want.Write(rec.payload)
		want.WriteByte('\n')
	}
	if !bytes.Equal(export.Bytes(), want.Bytes()) {
		t.Fatal("export of a two-pass segment is not its records verbatim")
	}
	var reput bytes.Buffer
	if _, err := s2.Export(&reput); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reput.Bytes(), want.Bytes()) {
		t.Fatal("re-putting the served reports did not reproduce the two-pass records in the export")
	}
}

// TestImportRejectsUnservableReports feeds Import records whose report
// Get could never serve: an object that is no report, a string, none at
// all, and a totals-only report (which Put refuses to store). Each must
// be rejected, not counted as added, and must not shadow a later good
// import of the same key.
func TestImportRejectsUnservableReports(t *testing.T) {
	totals, err := json.Marshal(testReport("net").WireTotals())
	if err != nil {
		t.Fatal(err)
	}
	bad := `{"key":"k-object","report":{"bogus":1}}` + "\n" +
		`{"key":"k-string","report":"not a report"}` + "\n" +
		`{"key":"k-missing"}` + "\n" +
		`{"key":"k-totals","report":` + string(totals) + "}\n"
	s := mustOpen(t, t.TempDir(), Options{})
	res, err := s.Import(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 0 || res.Rejected != 4 {
		t.Fatalf("import of unservable records = %+v, want all 4 rejected", res)
	}
	if st := s.Stats(); st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("stats after rejected import = %+v, want nothing stored", st)
	}

	donor := mustOpen(t, t.TempDir(), Options{})
	for _, k := range []string{"k-object", "k-string", "k-missing", "k-totals"} {
		donor.Put(k, testReport(k))
	}
	var corpus bytes.Buffer
	if _, err := donor.Export(&corpus); err != nil {
		t.Fatal(err)
	}
	res, err = s.Import(&corpus)
	if err != nil || res.Added != 4 {
		t.Fatalf("good import after the bad one = %+v, %v; want 4 added", res, err)
	}
	for _, k := range []string{"k-object", "k-string", "k-missing", "k-totals"} {
		if got, ok := s.Get(k); !ok || got.Network != k {
			t.Fatalf("Get(%q) = %v, %v", k, got, ok)
		}
	}
	if st := s.Stats(); st.IOErrors != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want no misses or I/O errors", st)
	}
}

// FuzzImport feeds arbitrary NDJSON to Import. It must never panic or
// fail on a short corpus; every record it counts as added must Get back
// a report that encodes to the bytes Export writes for it; and the
// export, imported into a fresh store, must add every record again and
// re-export byte-identically.
func FuzzImport(f *testing.F) {
	f.Add([]byte(`{"key":"k-object","report":{"bogus":1}}`))
	f.Add([]byte(`{"key":"k-string","report":"not a report"}`))
	f.Add([]byte(`{"key":"k-missing"}`))
	donor, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	donor.Put("INCA/is/fixed/LeNet5/<inference>", testReport("LeNet5"))
	var good bytes.Buffer
	if _, err := donor.Export(&good); err != nil {
		f.Fatal(err)
	}
	donor.Close()
	f.Add(good.Bytes())

	f.Fuzz(func(t *testing.T, corpus []byte) {
		s := mustOpen(t, t.TempDir(), Options{})
		res, err := s.Import(bytes.NewReader(corpus))
		if err != nil {
			t.Fatalf("Import = %+v, %v", res, err)
		}
		var export bytes.Buffer
		n, err := s.Export(&export)
		if err != nil || n != res.Added {
			t.Fatalf("export = %d records, %v; import added %d", n, err, res.Added)
		}
		for _, line := range bytes.SplitAfter(export.Bytes(), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rec struct {
				Key    string          `json:"key"`
				Report json.RawMessage `json:"report"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("exported line does not decode: %v\n%s", err, line)
			}
			rep, ok := s.Get(rec.Key)
			if !ok {
				t.Fatalf("added record %q does not Get", rec.Key)
			}
			if got, err := json.Marshal(rep); err != nil || !bytes.Equal(got, rec.Report) {
				t.Fatalf("Get(%q) encodes to %s, %v; export holds %s", rec.Key, got, err, rec.Report)
			}
		}
		s2 := mustOpen(t, t.TempDir(), Options{})
		res2, err := s2.Import(bytes.NewReader(export.Bytes()))
		if err != nil || res2.Added != n || res2.Rejected != 0 {
			t.Fatalf("re-import of the export = %+v, %v; want %d added", res2, err, n)
		}
		var again bytes.Buffer
		if _, err := s2.Export(&again); err != nil || !bytes.Equal(again.Bytes(), export.Bytes()) {
			t.Fatalf("re-export differs (%v):\n%s\nvs\n%s", err, again.Bytes(), export.Bytes())
		}
	})
}

// twoPassEntry is one record of the testdata/twopass segment, decoded.
type twoPassEntry struct {
	key     string
	created int64
	rep     *sim.Report
	payload []byte
}

// readTwoPass returns the testdata/twopass segment file and its
// records.
func readTwoPass(t testing.TB) ([]byte, []twoPassEntry) {
	t.Helper()
	seg, err := os.ReadFile(filepath.Join("testdata", "twopass", "seg-000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []twoPassEntry
	if _, err := wal.Scan(bytes.NewReader(seg), magicV1, func(_ int64, p []byte) bool {
		rec, rep, err := decodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, twoPassEntry{rec.Key, rec.Created, rep, p})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return seg, out
}

// FuzzRecordV2 feeds arbitrary payloads to the v2 decoder. It must
// never panic, and every payload it accepts must re-encode to the same
// bytes and render to a corpus line that the JSON decoder accepts and
// that re-imports to the same bytes: the v2 decoder accepts exactly the
// reports the JSON form carries.
func FuzzRecordV2(f *testing.F) {
	_, recs := readTwoPass(f)
	for _, r := range recs {
		payload, err := encodeRecordV2(nil, r.key, r.created, r.rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		f.Add(append(payload, 0))
	}
	// A report without layers ends in its total's latency, seven
	// one-byte counts and a zero layer count; its DRAM energy is the
	// first of the six components before the latency.
	valid, err := encodeRecordV2(nil, "k", 1, testReport("net"))
	if err != nil {
		f.Fatal(err)
	}
	latency := len(valid) - 1 - 7 - 8
	dram := latency - 6*8
	for _, patch := range []struct {
		off  int
		bits uint64
	}{
		{latency, math.Float64bits(math.NaN())},
		{latency, math.Float64bits(math.Inf(-1))},
		{dram, math.Float64bits(math.Copysign(0, -1))},
		{dram, math.Float64bits(-1)},
		{dram, math.Float64bits(math.Inf(1))},
	} {
		bad := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(bad[patch.off:], patch.bits)
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		key, created, rep, err := decodeRecordV2(payload)
		if err != nil {
			return
		}
		again, err := encodeRecordV2(nil, key, created, rep)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted record re-encodes to %x, %v; want %x", again, err, payload)
		}
		var line bytes.Buffer
		if err := encodeRecord(&line, key, addr(key), created, rep.Wire()); err != nil {
			t.Fatalf("accepted record does not render as JSON: %v", err)
		}
		rec, rep2, err := decodeRecord(line.Bytes())
		if err != nil {
			t.Fatalf("corpus line of an accepted record does not decode: %v\n%s", err, line.Bytes())
		}
		imported, err := encodeRecordV2(nil, rec.Key, rec.Created, rep2)
		if err != nil || !bytes.Equal(imported, payload) {
			t.Fatalf("re-imported corpus line encodes to %x, %v; want %x", imported, err, payload)
		}
	})
}

// codecExcluded lists the report fields the v2 codec leaves out on
// purpose, with the reason. TestRecordV2CarriesEveryField fails on any
// other field it does not carry.
var codecExcluded = map[string]string{
	"sim.Report.totalsOnly": "Put never stores a totals-only report",
	"sim.Report.wireUtil":   "set only on totals-only reports",
	"nn.Layer.InC":          layerGeometry,
	"nn.Layer.InH":          layerGeometry,
	"nn.Layer.InW":          layerGeometry,
	"nn.Layer.OutC":         layerGeometry,
	"nn.Layer.OutH":         layerGeometry,
	"nn.Layer.OutW":         layerGeometry,
	"nn.Layer.KH":           layerGeometry,
	"nn.Layer.KW":           layerGeometry,
	"nn.Layer.Stride":       layerGeometry,
	"nn.Layer.Pad":          layerGeometry,
	"nn.Layer.Branch":       layerGeometry,
}

const layerGeometry = "layer geometry describes the network, not the result; the wire form carries only a layer's name and kind"

// TestRecordV2CarriesEveryField fills every field of a report — each
// sim.Report, sim.LayerResult, nn.Layer, metrics.Result and
// metrics.Counts field not in codecExcluded — with a distinct value
// and requires the v2 round trip to return the report unchanged. A
// field added to any of them without a codec change fails here instead
// of silently dropping out of every stored record. (That the body
// carries every metrics energy component is sim's
// TestBodyCarriesEveryComponent.)
func TestRecordV2CarriesEveryField(t *testing.T) {
	rep := &sim.Report{}
	n := 0
	fillDistinct(t, reflect.ValueOf(rep).Elem(), &n)
	payload, err := encodeRecordV2(nil, "k", 1, rep)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := decodeRecordV2(payload)
	if err != nil {
		t.Fatal(err)
	}
	if field := firstDiff(reflect.ValueOf(got).Elem(), reflect.ValueOf(rep).Elem(), "sim.Report"); field != "" {
		t.Fatalf("v2 round trip does not carry %s", field)
	}
}

// firstDiff names the first field, walking got and want in step, where
// they differ, or returns "" when they are equal.
func firstDiff(got, want reflect.Value, path string) string {
	switch want.Kind() {
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			if d := firstDiff(got.Field(i), want.Field(i), path+"."+want.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if got.Len() != want.Len() {
			return path
		}
		for i := 0; i < want.Len(); i++ {
			if d := firstDiff(got.Index(i), want.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	default:
		if !got.Equal(want) {
			return path
		}
	}
	return ""
}

// fillDistinct sets every field of the struct v that codecExcluded does
// not name to a value no other field holds, and fails on a field it
// cannot set.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		f, fv := typ.Field(i), v.Field(i)
		name := typ.String() + "." + f.Name
		if _, ok := codecExcluded[name]; ok {
			continue
		}
		*n++
		switch {
		case f.Type == reflect.TypeOf(metrics.Energy{}):
			e := fv.Addr().Interface().(*metrics.Energy)
			for _, c := range metrics.Components() {
				e.Add(c, float64(*n)+float64(c)/8)
			}
		case f.Type == reflect.TypeOf(sim.Phase(0)):
			fv.Set(reflect.ValueOf(sim.Training))
		case f.Type == reflect.TypeOf(nn.Kind(0)):
			fv.Set(reflect.ValueOf(nn.FC))
		case !f.IsExported():
			t.Errorf("%s is unexported: carry it in the v2 record or add it to codecExcluded", name)
		case fv.Kind() == reflect.String:
			fv.SetString(fmt.Sprintf("s%d", *n))
		case fv.Kind() == reflect.Int || fv.Kind() == reflect.Int64:
			fv.SetInt(int64(*n))
		case fv.Kind() == reflect.Float64:
			fv.SetFloat(float64(*n) + 0.25)
		case fv.Kind() == reflect.Struct:
			fillDistinct(t, fv, n)
		case fv.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
			fv.Set(reflect.MakeSlice(f.Type, 2, 2))
			for j := 0; j < fv.Len(); j++ {
				fillDistinct(t, fv.Index(j), n)
			}
		default:
			t.Errorf("%s is a %v, which the v2 record does not carry", name, f.Type)
		}
	}
}
