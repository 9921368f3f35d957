package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// testReport fabricates a distinguishable report for key-shaped tests.
func testReport(name string) *sim.Report {
	r := &sim.Report{Arch: "INCA", Network: name, Phase: sim.Inference, Batch: 4}
	r.Total.Latency = float64(len(name))
	return r
}

func mustOpen(t testing.TB, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	want := testReport("vgg16")
	s.Put("INCA/fixed/vgg16/inference", want)
	if got, ok := s.Get("INCA/fixed/vgg16/inference"); !ok || got.Network != "vgg16" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := s.Get("INCA/fixed/absent/inference"); ok {
		t.Fatal("unknown key served a report")
	}
	s.Close()

	// Reopen: the index rebuilds from the segment scan and the report's
	// stable JSON round-trips byte-identically — the warm-start contract.
	s2 := mustOpen(t, dir, Options{})
	got, ok := s2.Get("INCA/fixed/vgg16/inference")
	if !ok {
		t.Fatal("reopened store lost the record")
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("report drifted across restart:\n%s\n%s", wantJSON, gotJSON)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("stats after reopen = %+v", st)
	}
}

func TestTornTailTruncatedNotFatal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("INCA/fixed/net-%d/inference", i), testReport(fmt.Sprintf("net-%d", i)))
	}
	s.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	tail := segs[len(segs)-1]
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: cut the last record in half.
	if err := os.Truncate(tail, fi.Size()-40); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.Entries != 2 || st.TornRecords != 1 {
		t.Fatalf("after torn tail: %+v, want 2 entries and 1 torn record", st)
	}
	// The surviving prefix keeps serving, and the file is clean again:
	// a fresh Put lands and survives another reopen.
	for i := 0; i < 2; i++ {
		if _, ok := s2.Get(fmt.Sprintf("INCA/fixed/net-%d/inference", i)); !ok {
			t.Fatalf("surviving record net-%d lost", i)
		}
	}
	s2.Put("INCA/fixed/net-2/inference", testReport("net-2"))
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	if n := s3.Len(); n != 3 {
		t.Fatalf("after repair and re-put: %d entries, want 3", n)
	}
}

func TestBadMagicReinitializes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put("k", testReport("k"))
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err := os.WriteFile(segs[0], []byte("NOTASTORE-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if n := s2.Len(); n != 0 {
		t.Fatalf("garbage segment indexed %d records", n)
	}
	if st := s2.Stats(); st.TornRecords != 1 {
		t.Fatalf("stats = %+v, want 1 torn record", st)
	}
	s2.Put("k", testReport("k"))
	if _, ok := s2.Get("k"); !ok {
		t.Fatal("reinitialized segment does not accept puts")
	}
}

func TestTTLExpiryAndCompaction(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	s := mustOpen(t, t.TempDir(), Options{TTL: time.Hour, now: now})
	s.Put("old", testReport("old"))
	clock = clock.Add(2 * time.Hour)
	s.Put("fresh", testReport("fresh"))

	if _, ok := s.Get("old"); ok {
		t.Fatal("expired record served")
	}
	if _, ok := s.Get("fresh"); !ok {
		t.Fatal("live record missed")
	}
	if st := s.Stats(); st.Expired == 0 {
		t.Fatalf("stats = %+v, want expired > 0", st)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("after compaction: %d entries, want 1 (expired dropped)", n)
	}
}

func TestSizeCapEvictsOldestFirst(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 4 << 10, SegmentMaxBytes: 1 << 10, now: now})
	for i := 0; i < 40; i++ {
		clock = clock.Add(time.Second)
		s.Put(fmt.Sprintf("key-%02d", i), testReport(fmt.Sprintf("net-%02d", i)))
	}
	st := s.Stats()
	if st.Bytes > 4<<10 {
		t.Fatalf("store at %d bytes, cap 4096", st.Bytes)
	}
	if st.Evicted == 0 || st.Compacts == 0 {
		t.Fatalf("stats = %+v, want evictions via compaction", st)
	}
	// The newest record must have survived; the oldest must be gone.
	if _, ok := s.Get("key-39"); !ok {
		t.Fatal("newest record evicted")
	}
	if _, ok := s.Get("key-00"); ok {
		t.Fatal("oldest record survived a full-cap eviction")
	}
}

func TestOverwriteNewestWinsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put("k", testReport("first"))
	s.Put("k", testReport("second"))
	if got, _ := s.Get("k"); got == nil || got.Network != "second" {
		t.Fatalf("got %v, want the re-put report", got)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if got, _ := s2.Get("k"); got == nil || got.Network != "second" {
		t.Fatalf("reopen resurrected the old record: %v", got)
	}
	if n := s2.Len(); n != 1 {
		t.Fatalf("duplicate key indexed twice: %d", n)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	a := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 5; i++ {
		a.Put(fmt.Sprintf("key-%d", i), testReport(fmt.Sprintf("net-%d", i)))
	}
	var corpus bytes.Buffer
	n, err := a.Export(&corpus)
	if err != nil || n != 5 {
		t.Fatalf("export = %d, %v", n, err)
	}

	// Import into an empty store: equal stores export byte-identical
	// corpora (record payloads are preserved verbatim, keys sort).
	b := mustOpen(t, t.TempDir(), Options{})
	res, err := b.Import(bytes.NewReader(corpus.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 5 || res.Skipped != 0 || res.Rejected != 0 {
		t.Fatalf("import = %+v", res)
	}
	var corpusB bytes.Buffer
	if _, err := b.Export(&corpusB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(corpus.Bytes(), corpusB.Bytes()) {
		t.Fatal("round-tripped corpus is not byte-identical")
	}
	// A second import of the same corpus finds every key present and
	// adds nothing — the local copies win.
	res, err = b.Import(bytes.NewReader(corpus.Bytes()))
	if err != nil || res.Added != 0 || res.Skipped != 5 {
		t.Fatalf("re-import = %+v, %v", res, err)
	}
}

func TestImportRejectsTamperedAddr(t *testing.T) {
	a := mustOpen(t, t.TempDir(), Options{})
	a.Put("honest-key", testReport("x"))
	var corpus bytes.Buffer
	if _, err := a.Export(&corpus); err != nil {
		t.Fatal(err)
	}
	// Claim a different key over the same addr: the content address no
	// longer matches and the record must be rejected.
	tampered := bytes.Replace(corpus.Bytes(), []byte(`"key":"honest-key"`), []byte(`"key":"forged-key"`), 1)
	b := mustOpen(t, t.TempDir(), Options{})
	res, err := b.Import(bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Added != 0 {
		t.Fatalf("import = %+v, want the forged record rejected", res)
	}
	garbage := bytes.NewReader([]byte("not json\n\n{\"key\":\"\"}\n"))
	res, err = b.Import(garbage)
	if err != nil || res.Rejected != 2 || res.Added != 0 {
		t.Fatalf("garbage import = %+v, %v", res, err)
	}
}

func TestClosedStoreDegrades(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	s.Put("k", testReport("k"))
	s.Close()
	if _, ok := s.Get("k"); ok {
		t.Fatal("closed store served a record")
	}
	s.Put("k2", testReport("k2")) // must not panic
	if err := s.Compact(); err != ErrClosed {
		t.Fatalf("Compact on closed store = %v", err)
	}
}

// TestFailedCompactionKeepsRecords pins the compaction swap: when the
// survivors cannot be written (here the store's directory has been
// replaced by a file, so no new segment can be created), Compact fails
// and the store keeps serving every record from its old segments.
func TestFailedCompactionKeepsRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := mustOpen(t, dir, Options{})
	keys := []string{"INCA/fixed/a/inference", "INCA/fixed/b/inference", "INCA/fixed/c/inference"}
	for _, k := range keys {
		s.Put(k, testReport(k))
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact succeeded with no directory to write segments into")
	}
	if st := s.Stats(); st.Entries != len(keys) || st.Segments != 1 {
		t.Fatalf("stats after failed compaction = %+v, want %d entries in 1 segment", st, len(keys))
	}
	for _, k := range keys {
		if got, ok := s.Get(k); !ok || got.Network != k {
			t.Fatalf("Get(%q) after failed compaction = %v, %v", k, got, ok)
		}
	}
}

// TestWarmStartReplaysGoldenSweep is the tentpole's end-to-end check at
// the engine level: a sweep simulated once into the store, then — after
// a simulated restart (fresh in-memory cache, reopened store) — served
// entirely from disk, byte-identical, with zero re-simulations.
func TestWarmStartReplaysGoldenSweep(t *testing.T) {
	dir := t.TempDir()
	plan := sweep.Plan{
		Archs:    []sweep.Arch{sweep.INCAArch(), sweep.BaselineArch()},
		Networks: []*nn.Network{nn.LeNet5(), nn.VGG16CIFAR()},
		Phases:   []sim.Phase{sim.Inference, sim.Training},
	}
	ctx := context.Background()

	runSweep := func(st *Store) ([]string, *sweep.Cache) {
		cache := sweep.NewCache()
		cache.SetTier(st)
		results, err := sweep.Run(ctx, plan, sweep.Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		rendered := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("cell %s: %v", r.Cell.Key(), r.Err)
			}
			j, err := json.Marshal(r.Report)
			if err != nil {
				t.Fatal(err)
			}
			rendered[i] = string(j)
		}
		return rendered, cache
	}

	st := mustOpen(t, dir, Options{})
	golden, cold := runSweep(st)
	if cold.DiskHits() != 0 || cold.Misses() != 8 {
		t.Fatalf("cold run: disk_hits=%d misses=%d, want 0/8", cold.DiskHits(), cold.Misses())
	}
	st.Close()

	st2 := mustOpen(t, dir, Options{})
	replay, warm := runSweep(st2)
	if warm.DiskHits() != 8 || warm.Misses() != 0 {
		t.Fatalf("warm run: disk_hits=%d misses=%d, want 8/0 (zero re-simulations)", warm.DiskHits(), warm.Misses())
	}
	for i := range golden {
		if golden[i] != replay[i] {
			t.Fatalf("cell %d not byte-identical after warm start:\n%s\n%s", i, golden[i], replay[i])
		}
	}
}
