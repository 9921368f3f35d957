package store

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

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
		out[i] = keyedReport{r.Cell.Key().String(), r.Report}
	}
	return out
}

// replayClock returns a store clock that hands out the given times in
// order, one per call.
func replayClock(times []int64) func() time.Time {
	return func() time.Time {
		now := time.Unix(0, times[0])
		times = times[1:]
		return now
	}
}

// TestRecordCodecMatchesTwoPass pins the one-pass codec to the two-pass
// encoding byte for byte, over every backend the paper compares, deep
// and shallow networks, both phases, and keys that encoding/json escapes
// (<, >, &, U+2028 and U+2029). It also pins a segment file written by Put to
// the magic followed by the two-pass records, framed.
func TestRecordCodecMatchesTwoPass(t *testing.T) {
	cells := simulate(t, []string{"is", "ws", "gpu"},
		[]*nn.Network{nn.ResNet50(), nn.VGG16(), nn.LeNet5()},
		[]sim.Phase{sim.Inference, sim.Training})
	const created = 1_700_000_000_123_456_789
	var times []int64
	want := []byte(segMagic)
	for _, c := range cells {
		for _, key := range []string{c.key, c.key + "|<b>&</b>", "line\u2028sep\u2029" + c.key} {
			fb, err := encodeRecord(key, addr(key), created, c.rep.Wire())
			if err != nil {
				t.Fatal(err)
			}
			got, old := fb.frame()[wal.HeaderLen:], twoPassRecord(t, key, created, c.rep)
			if !bytes.Equal(got, old) {
				t.Fatalf("key %q: one-pass record differs from two-pass:\n got %.200s\nwant %.200s", key, got, old)
			}
			fb.release()
		}
		times = append(times, created+int64(len(times)))
		want = append(want, wal.Frame(twoPassRecord(t, c.key, times[len(times)-1], c.rep))...)
	}

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentMaxBytes: 1 << 30, MaxBytes: 1 << 30, now: replayClock(times)})
	for _, c := range cells {
		s.Put(c.key, c.rep)
	}
	s.Close()
	got, err := os.ReadFile(filepath.Join(dir, "seg-000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment written by Put (%d bytes) differs from the two-pass framing (%d bytes)", len(got), len(want))
	}
}

// TestOpensTwoPassSegments opens a store directory written by the
// two-pass encoder (testdata/twopass: is/ws/gpu × LeNet5 × both phases,
// plus one record under a key that needs escaping). Every record must
// index and Get back the report it holds; Export must reproduce the
// stored records verbatim; and re-putting the served reports with the
// same timestamps must rewrite the segment file byte for byte.
func TestOpensTwoPassSegments(t *testing.T) {
	const name = "seg-000000.log"
	old, err := os.ReadFile(filepath.Join("testdata", "twopass", name))
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	if _, err := wal.Scan(bytes.NewReader(old), segMagic, func(_ int64, p []byte) bool {
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
	dir2 := t.TempDir()
	s2 := mustOpen(t, dir2, Options{now: replayClock(times)})
	for _, rec := range recs {
		rep, _ := s.Get(rec.Key)
		s2.Put(rec.Key, rep)
	}
	s2.Close()
	got, err := os.ReadFile(filepath.Join(dir2, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("re-putting the served reports did not reproduce the two-pass segment")
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
