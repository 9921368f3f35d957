package store

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedClock is a thread-safe test clock: the concurrency tests
// advance it from the main goroutine while store operations read it
// from workers.
type lockedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *lockedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *lockedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestExportConcurrentWithTTLCompaction runs Export in a loop while TTL
// compaction rewrites segments underneath it and writers keep appending.
// Under -race this pins the locking discipline; functionally it pins
// that every exported line stays a decodable corpus record (a torn or
// half-compacted read must be skipped, never emitted), and that a
// quiescent export afterwards is deterministic and complete.
func TestExportConcurrentWithTTLCompaction(t *testing.T) {
	clock := &lockedClock{t: time.Unix(1_700_000_000, 0)}
	s := mustOpen(t, t.TempDir(), Options{
		TTL:             time.Hour,
		SegmentMaxBytes: 2 << 10, // many small segments: compaction touches more files
		now:             clock.now,
	})

	// An old generation that the advancing clock will expire mid-test.
	for i := 0; i < 64; i++ {
		s.Put(fmt.Sprintf("old-%02d", i), testReport(fmt.Sprintf("old-%02d", i)))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	expired := make(chan struct{})

	// Writer: a fresh generation appended while exports run. It starts
	// once the clock has moved past the old generation's TTL: a record
	// put before that is old too, and would rightly expire with it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-expired
		for i := 0; i < 64; i++ {
			s.Put(fmt.Sprintf("new-%02d", i), testReport(fmt.Sprintf("new-%02d", i)))
		}
	}()

	// Compactor: expiry sweeps racing the exports.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Exporters: every line they see must decode as a corpus record.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var buf bytes.Buffer
				if _, err := s.Export(&buf); err != nil {
					t.Error(err)
					return
				}
				for _, line := range strings.Split(buf.String(), "\n") {
					if line == "" {
						continue
					}
					if !strings.HasPrefix(line, `{"key":"`) || !strings.HasSuffix(line, "}") {
						t.Errorf("export emitted a non-record line: %q", line)
						return
					}
				}
			}
		}()
	}

	// Let the machinery overlap, then expire the old generation while
	// everything is still running.
	clock.advance(2 * time.Hour)
	close(expired)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent: only the fresh generation survives, and two exports are
	// byte-identical (the corpus determinism warm-start relies on).
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	na, err := s.Export(&a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := s.Export(&b)
	if err != nil {
		t.Fatal(err)
	}
	if na != 64 || nb != 64 {
		t.Fatalf("quiescent export = %d then %d records, want 64 (fresh generation only)", na, nb)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("back-to-back exports of a quiescent store differ")
	}
	for i := 0; i < 64; i++ {
		if _, ok := s.Get(fmt.Sprintf("old-%02d", i)); ok {
			t.Fatalf("expired old-%02d survived compaction", i)
		}
	}
}

// TestImportConcurrentWithCompaction merges a corpus into a store whose
// size cap forces compactions mid-import, while an external compactor
// and a writer race it. The import must account for every corpus line
// and the merged records must be readable afterwards.
func TestImportConcurrentWithCompaction(t *testing.T) {
	// Donor: build a deterministic corpus.
	donor := mustOpen(t, t.TempDir(), Options{})
	const corpusN = 128
	for i := 0; i < corpusN; i++ {
		donor.Put(fmt.Sprintf("corpus-%03d", i), testReport(fmt.Sprintf("corpus-%03d", i)))
	}
	var corpus bytes.Buffer
	if n, err := donor.Export(&corpus); err != nil || n != corpusN {
		t.Fatalf("donor export = %d, %v", n, err)
	}

	clock := &lockedClock{t: time.Unix(1_700_000_000, 0)}
	s := mustOpen(t, t.TempDir(), Options{
		TTL:             time.Hour,
		SegmentMaxBytes: 2 << 10,
		now:             clock.now,
	})
	// Records already present: the import must skip them, not duplicate.
	for i := 0; i < 16; i++ {
		s.Put(fmt.Sprintf("corpus-%03d", i), testReport(fmt.Sprintf("corpus-%03d", i)))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			s.Put(fmt.Sprintf("local-%02d", i), testReport(fmt.Sprintf("local-%02d", i)))
		}
	}()

	res, err := s.Import(&corpus)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if res.Added+res.Skipped+res.Rejected != corpusN {
		t.Fatalf("import accounted for %d of %d lines: %+v", res.Added+res.Skipped+res.Rejected, corpusN, res)
	}
	if res.Rejected != 0 {
		t.Fatalf("clean corpus rejected %d lines: %+v", res.Rejected, res)
	}
	if res.Skipped < 16 {
		t.Fatalf("import skipped %d, want >= 16 (pre-seeded keys)", res.Skipped)
	}

	// Every corpus record answers, byte-identical to the donor's copy.
	for i := 0; i < corpusN; i++ {
		key := fmt.Sprintf("corpus-%03d", i)
		got, ok := s.Get(key)
		if !ok {
			t.Fatalf("imported key %s missing", key)
		}
		want, _ := donor.Get(key)
		if got.Network != want.Network || got.Total.Latency != want.Total.Latency {
			t.Fatalf("imported %s drifted: %+v vs %+v", key, got, want)
		}
	}
}

// TestExportSkipsRecordsLostToConcurrentEviction pins the degraded path
// the lock release in Export opens: a compaction that rewrites segments
// between the index snapshot and the payload reads must surface as
// skipped records (ioErrs), never as corrupted output or a crash.
func TestExportSkipsRecordsLostToConcurrentEviction(t *testing.T) {
	clock := &lockedClock{t: time.Unix(1_700_000_000, 0)}
	s := mustOpen(t, t.TempDir(), Options{
		TTL:             time.Minute,
		SegmentMaxBytes: 1 << 10,
		now:             clock.now,
	})
	for i := 0; i < 64; i++ {
		s.Put(fmt.Sprintf("key-%02d", i), testReport(fmt.Sprintf("net-%02d", i)))
	}

	// Race exports against expire-everything compactions.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Export(io.Discard); err != nil {
				t.Error(err)
			}
		}()
	}
	clock.advance(2 * time.Minute)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Compact(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Afterwards the store is coherent: everything expired, nothing
	// serves, and a fresh put round-trips.
	if n, err := s.Export(io.Discard); err != nil || n != 0 {
		t.Fatalf("post-eviction export = %d records, %v; want 0", n, err)
	}
	s.Put("fresh", testReport("fresh"))
	if _, ok := s.Get("fresh"); !ok {
		t.Fatal("store broken after racing export and eviction")
	}
}
