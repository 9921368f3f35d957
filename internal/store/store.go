// Package store is the persistent, content-addressed result tier under
// the sweep engine's memo cache. The in-memory cache dies with the
// process, so a restarted service recomputes every design-space cell a
// fleet has already paid for; this package makes those results durable
// and shareable:
//
//   - append-only segment files (seg-NNNNNN.log), internal/wal logs of
//     binary records (see codec.go), each holding one sim.Report under
//     its canonical 5-segment cell key — the key names the content, so
//     merge and dedupe are trivial (equal keys produce byte-identical
//     reports). Segments of the earlier JSON record format still open
//     and serve, and compaction rewrites them;
//   - an in-memory index from cell key to record, rebuilt by scanning
//     the segments at Open, so the warm start costs one sequential read
//     of the directory and no separate index file can desynchronize
//     from the data;
//   - crash safety by construction: only the active tail segment is ever
//     appended to, so a crash can tear at most the final record, and
//     Open truncates a torn tail instead of failing — the surviving
//     prefix keeps serving;
//   - TTL expiry and a total-size cap enforced by segment compaction:
//     live records are rewritten into a fresh segment (newest segment
//     wins on duplicate keys), expired and evicted ones are dropped,
//     old segments deleted;
//   - corpus export/import as JSON lines, so fleets share precomputed
//     results: a shard imports its peers' corpora and serves their
//     cells from disk instead of re-simulating. Each corpus line also
//     carries its content address, the SHA-256 of its key, so a reader
//     can verify it without the store. The corpus bytes, not the
//     segment bytes, are the stable format.
//
// Store implements the sweep.Tier contract (Get/Put by canonical key
// string); layer one under a cache with sweep.Cache.SetTier or the
// facade's inca.WithResultStore.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/wal"
)

// Segment magics: each names an internal/wal log format (see codec.go).
// Put writes only v2; v1 segments, whose payloads are JSON records, are
// read until compaction rewrites them.
const (
	magicPrefix = "INCASTO"
	magicV1     = magicPrefix + "1"
	magicV2     = magicPrefix + "2"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Options configures Open. The zero value is production-usable.
type Options struct {
	// MaxBytes caps the total size of all segment files; exceeding it
	// triggers a compaction that drops expired records first, then the
	// oldest live ones. <= 0 means 256 MiB.
	MaxBytes int64
	// TTL expires records that long after they were stored: expired
	// records answer Get as misses and are dropped at the next
	// compaction. <= 0 means no expiry.
	TTL time.Duration
	// SegmentMaxBytes rolls the active segment once it grows past this
	// size, bounding the blast radius of a torn tail and the unit of
	// compaction. <= 0 means 8 MiB.
	SegmentMaxBytes int64
	// now is the test clock hook; nil means time.Now.
	now func() time.Time
}

// withDefaults resolves every unset option.
func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 8 << 20
	}
	if o.SegmentMaxBytes > o.MaxBytes {
		o.SegmentMaxBytes = o.MaxBytes
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// indexEntry locates one live record: which segment, where, how long,
// and when it was created (for TTL and eviction order).
type indexEntry struct {
	seg     int   // segment ID
	off     int64 // record start (the length prefix)
	size    int64 // full framed size: header + payload
	created int64 // unix nanos
}

// segment is one open segment file.
type segment struct {
	id   int
	path string
	log  *wal.Log
	v1   bool // JSON records: read and compacted, never appended to
}

// errKeyMismatch reports a record that does not hold the key the index
// reached it by.
var errKeyMismatch = errors.New("store: record key does not match its index entry")

// decode reads the record at e, which the index holds under key, and
// rebuilds its report.
func (seg *segment) decode(e indexEntry, key string) (*sim.Report, error) {
	payload, err := seg.log.ReadAt(e.off, e.size)
	if err != nil {
		return nil, err
	}
	var recKey string
	var rep *sim.Report
	if seg.v1 {
		var rec record
		rec, rep, err = decodeRecord(payload)
		recKey = rec.Key
	} else {
		recKey, _, rep, err = decodeRecordV2(payload)
	}
	if err == nil && recKey != key {
		err = errKeyMismatch
	}
	return rep, err
}

// view is one generation of the store's on-disk state: the open
// segments, the index over them, and the active tail. Compaction builds
// the next view on the side and swaps it in only once it is complete.
type view struct {
	index  map[string]indexEntry // canonical cell key → location
	segs   map[int]*segment
	active *segment
}

func newView() view {
	return view{
		index: make(map[string]indexEntry),
		segs:  make(map[int]*segment),
	}
}

// bytes is the view's total on-disk size.
func (v *view) bytes() int64 {
	var n int64
	for _, seg := range v.segs {
		n += seg.log.Size()
	}
	return n
}

// close releases every segment file, deleting them too when remove is
// set, and returns the first close error.
func (v *view) close(remove bool) error {
	var first error
	for _, seg := range v.segs {
		if err := seg.log.Close(); err != nil && first == nil {
			first = err
		}
		if remove {
			os.Remove(seg.path)
		}
	}
	return first
}

// Stats is a point-in-time snapshot of a store's counters and footprint,
// in the shape GET /v1/store/stats serves.
type Stats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Expired  int64 `json:"expired"`
	Puts     int64 `json:"puts"`
	Evicted  int64 `json:"evicted"`
	Compacts int64 `json:"compactions"`
	// TornRecords counts torn or corrupt tail records dropped during
	// index rebuilds — nonzero after recovering from a crash mid-append.
	TornRecords int64 `json:"torn_records"`
	// IOErrors counts reads/writes the store swallowed (Get degrades to
	// a miss, Put to a no-op): the cache above must keep working when
	// the disk does not.
	IOErrors int64  `json:"io_errors"`
	Entries  int    `json:"entries"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	Dir      string `json:"dir"`
}

// Store is a disk-backed, content-addressed result store. It is safe
// for concurrent use; a Store may be shared as the second tier of any
// number of sweep caches. Construct with Open.
type Store struct {
	dir string
	opt Options

	hits     atomic.Int64
	misses   atomic.Int64
	expired  atomic.Int64
	puts     atomic.Int64
	evicted  atomic.Int64
	compacts atomic.Int64
	torn     atomic.Int64
	ioErrs   atomic.Int64

	mu sync.Mutex
	view
	nextID int
	closed bool
}

// addr returns the content address of a canonical cell key: the hex
// SHA-256 a corpus line carries next to the key.
func addr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Open opens (creating if needed) the store rooted at dir and rebuilds
// the in-memory index by scanning every segment — the warm start. A
// torn tail record (crash mid-append) is truncated, not fatal; segments
// that cannot be opened at all fail Open.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opt: opt, view: newView()}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids := make([]int, 0, len(names))
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.log", &id); err == nil {
			ids = append(ids, id)
		}
	}
	// Scan in ID order so a record in a later segment (a re-put or a
	// compaction survivor) wins over any earlier copy of the same key.
	sort.Ints(ids)
	for _, id := range ids {
		seg, err := s.openSegment(id)
		if err != nil {
			s.closeLocked()
			return nil, err
		}
		s.segs[id] = seg
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	if len(ids) > 0 {
		s.active = s.segs[ids[len(ids)-1]]
	}
	return s, nil
}

// openSegment opens one segment file and indexes its records, truncating
// a torn or corrupt tail to the last cleanly-framed record. The file's
// magic is read first, because wal.Open re-initializes a log whose magic
// is not the one it is given: a v1 segment opens as v1, and anything
// that is neither v1 nor a newer version (see sniffMagic) opens as v2.
func (s *Store) openSegment(id int) (*segment, error) {
	path := s.segPath(id)
	v1, err := sniffMagic(path)
	if err != nil {
		return nil, err
	}
	magic := magicV2
	if v1 {
		magic = magicV1
	}
	log, torn, err := wal.Open(path, magic, false, func(off int64, payload []byte) bool {
		key, created, err := recordHeadOf(payload, v1)
		if err != nil {
			return false // framed but undecodable: stop, do not index
		}
		s.index[key] = indexEntry{seg: id, off: off, size: wal.HeaderLen + int64(len(payload)), created: created}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if torn {
		s.torn.Add(1)
	}
	return &segment{id: id, path: path, log: log, v1: v1}, nil
}

// sniffMagic reads a segment file's magic and reports whether it is a
// v1 segment. A magic of magicPrefix plus a version digit this binary
// does not know is an error: the segment was written by a newer binary,
// and opening it as v2 would erase it. Anything else — garbage, a short
// or empty file — is not a store segment and opens as v2, which
// re-initializes it.
func sniffMagic(path string) (v1 bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	head := make([]byte, len(magicV2))
	n, _ := io.ReadFull(f, head)
	magic := string(head[:n])
	switch {
	case magic == magicV1:
		return true, nil
	case magic == magicV2:
		return false, nil
	case n == len(head) && strings.HasPrefix(magic, magicPrefix) && '0' <= head[n-1] && head[n-1] <= '9':
		return false, fmt.Errorf("store: %s: segment format version %c is not supported (this binary reads versions 1 and 2)", path, head[n-1])
	}
	return false, nil
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.log", id))
}

// newSegment creates and opens the next segment file.
func (s *Store) newSegment() (*segment, error) {
	id := s.nextID
	s.nextID++
	path := s.segPath(id)
	log, err := wal.Create(path, magicV2)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &segment{id: id, path: path, log: log}, nil
}

// Get returns the stored report for the canonical cell key, or false on
// a miss — unknown key, expired record, or an unreadable segment (the
// store degrades to recomputation, never fails the lookup). The
// signature matches sweep.Tier.
func (s *Store) Get(key string) (*sim.Report, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	e, ok := s.index[key]
	if ok && s.expiredAt(e.created, s.opt.now()) {
		s.expired.Add(1)
		ok = false
	}
	var seg *segment
	if ok {
		seg = s.segs[e.seg]
	}
	s.mu.Unlock()
	if !ok || seg == nil {
		s.misses.Add(1)
		return nil, false
	}
	rep, err := seg.decode(e, key)
	if err != nil {
		s.ioErrs.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return rep, true
}

// expiredAt reports whether a record created at the given unix-nano
// timestamp is past the store's TTL at time now.
func (s *Store) expiredAt(created int64, now time.Time) bool {
	return s.opt.TTL > 0 && now.Sub(time.Unix(0, created)) > s.opt.TTL
}

// Put stores the report under the canonical cell key, overwriting any
// previous record for the key (the newer one wins at the index; the old
// bytes fall away at the next compaction). Disk errors are swallowed
// into the IOErrors counter — a failing disk must not fail the sweep
// above it. A totals-only report (sim.Report.TotalsOnly) is not
// stored: a record must replay the full report. The signature matches
// sweep.Tier.
func (s *Store) Put(key string, rep *sim.Report) {
	if rep == nil || rep.TotalsOnly() {
		return
	}
	created := s.opt.now().UnixNano()
	fb, err := encodeFrame(key, created, rep)
	if err != nil {
		s.ioErrs.Add(1)
		return
	}
	defer releaseFrame(fb)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if err := s.appendTo(&s.view, key, *fb, created); err != nil {
		s.ioErrs.Add(1)
		return
	}
	s.puts.Add(1)
	if s.view.bytes() > s.opt.MaxBytes {
		if err := s.compactLocked(); err != nil {
			s.ioErrs.Add(1)
		}
	}
}

// appendTo appends one v2 record frame (see wal.Log.AppendFrame) to the
// view's active segment, rolling to a fresh segment first when the
// active one is full or is a v1 segment. Callers hold s.mu.
func (s *Store) appendTo(v *view, key string, frame []byte, created int64) error {
	size := int64(len(frame))
	if v.active == nil || v.active.v1 || v.active.log.Size()+size > s.opt.SegmentMaxBytes {
		seg, err := s.newSegment()
		if err != nil {
			return err
		}
		v.segs[seg.id] = seg
		v.active = seg
	}
	off, err := v.active.log.AppendFrame(frame)
	if err != nil {
		return err
	}
	v.index[key] = indexEntry{seg: v.active.id, off: off, size: size, created: created}
	return nil
}

// compactLocked rewrites the live records into fresh segments and
// deletes the old ones: expired records are dropped first, then the
// oldest live records until the survivors fit in MaxBytes. v2 records
// are copied verbatim and v1 records re-encoded as v2, so the fresh
// segments are all v2; a v1 record that no longer decodes is dropped,
// as Get could never serve it. The new segments get higher IDs than
// every old one, so a crash between writing them and deleting the old
// files recovers to a consistent newest-wins index (at worst
// resurrecting some evicted bytes, which the next compaction drops
// again). The survivors are written into a view built on the side: if
// that fails, its partial segments are deleted and the store keeps
// serving from the old ones.
func (s *Store) compactLocked() error {
	s.compacts.Add(1)
	type live struct {
		key     string
		frame   []byte
		created int64
	}
	now := s.opt.now()
	var survivors []live
	expired := 0
	for key, e := range s.index {
		if s.expiredAt(e.created, now) {
			expired++
			continue
		}
		seg := s.segs[e.seg]
		if seg == nil {
			continue
		}
		frame, err := s.compactFrame(seg, e, key)
		if err != nil {
			s.ioErrs.Add(1)
			continue
		}
		survivors = append(survivors, live{key: key, frame: frame, created: e.created})
	}
	// Oldest-first eviction until the survivors fit comfortably (90% of
	// the cap, so one more Put does not immediately re-trigger).
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].created < survivors[j].created })
	budget := s.opt.MaxBytes * 9 / 10
	var total int64
	for _, sv := range survivors {
		total += int64(len(sv.frame))
	}
	drop := 0
	for drop < len(survivors) && total > budget {
		total -= int64(len(survivors[drop].frame))
		drop++
	}

	next := newView()
	for _, sv := range survivors[drop:] {
		if err := s.appendTo(&next, sv.key, sv.frame, sv.created); err != nil {
			next.close(true)
			return err
		}
	}
	s.view.close(true)
	s.view = next
	s.expired.Add(int64(expired))
	s.evicted.Add(int64(drop))
	return nil
}

// compactFrame returns the v2 frame that carries the record at e into
// a compacted segment.
func (s *Store) compactFrame(seg *segment, e indexEntry, key string) ([]byte, error) {
	if !seg.v1 {
		payload, err := seg.log.ReadAt(e.off, e.size)
		if err != nil {
			return nil, err
		}
		return wal.Frame(payload), nil
	}
	rep, err := seg.decode(e, key)
	if err != nil {
		return nil, err
	}
	return encodeRecordV2(make([]byte, wal.HeaderLen), key, e.created, rep)
}

// Compact runs a compaction immediately: expired records are dropped and
// the store is shrunk under its size cap. Put triggers this on demand;
// Compact exists for operational use (free space now, not at the next
// overflow).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// Len reports the number of indexed (live or expired-but-uncompacted)
// records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's counters and footprint. Each field is
// individually exact; the set is read without stopping writers.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries := len(s.index)
	segments := len(s.segs)
	bytes := s.view.bytes()
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Expired:     s.expired.Load(),
		Puts:        s.puts.Load(),
		Evicted:     s.evicted.Load(),
		Compacts:    s.compacts.Load(),
		TornRecords: s.torn.Load(),
		IOErrors:    s.ioErrs.Load(),
		Entries:     entries,
		Segments:    segments,
		Bytes:       bytes,
		Dir:         s.dir,
	}
}

// Export writes every live (non-expired) record to w as JSON lines —
// the corpus format Import reads, and the store's stable format: a v1
// record is written verbatim and a v2 one rendered to the same line
// (see codec.go), so the same contents export byte-identically
// whichever segments hold them. Records export in deterministic key
// order so equal stores produce byte-identical corpora. It returns the
// number of records written.
func (s *Store) Export(w io.Writer) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	type loc struct {
		key string
		e   indexEntry
		seg *segment
	}
	now := s.opt.now()
	locs := make([]loc, 0, len(s.index))
	for key, e := range s.index {
		if s.expiredAt(e.created, now) {
			continue
		}
		if seg := s.segs[e.seg]; seg != nil {
			locs = append(locs, loc{key: key, e: e, seg: seg})
		}
	}
	s.mu.Unlock()
	sort.Slice(locs, func(i, j int) bool { return locs[i].key < locs[j].key })
	bw := bufio.NewWriter(w)
	var line bytes.Buffer
	n := 0
	for _, l := range locs {
		if err := l.seg.corpusLine(&line, l.e, l.key); err != nil {
			s.ioErrs.Add(1)
			continue
		}
		line.WriteByte('\n')
		if _, err := bw.Write(line.Bytes()); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// corpusLine writes the record at e to buf as its corpus line, without
// the newline. A v1 payload is already one compact JSON object with no
// embedded newlines, so it is the line verbatim.
func (seg *segment) corpusLine(buf *bytes.Buffer, e indexEntry, key string) error {
	buf.Reset()
	if seg.v1 {
		payload, err := seg.log.ReadAt(e.off, e.size)
		buf.Write(payload)
		return err
	}
	rep, err := seg.decode(e, key)
	if err != nil {
		return err
	}
	return encodeRecord(buf, key, addr(key), e.created, rep.Wire())
}

// ImportResult summarizes one Import: how many corpus records were
// added, skipped because the store already holds the key, or rejected
// (undecodable lines, content-address mismatches).
type ImportResult struct {
	Added    int `json:"added"`
	Skipped  int `json:"skipped"`
	Rejected int `json:"rejected"`
}

// Import merges a corpus (the Export format) into the store: records
// for unknown keys are appended, records for keys the store already
// holds are skipped (the local copy wins — equal keys mean byte-
// identical reports, so there is nothing to reconcile), and records
// whose content address does not match their key are rejected. Each
// report is decoded as Get decodes it, so a record that Get could never
// serve — no report, an undecodable or totals-only one — is rejected
// too, and an accepted one is stored as the v2 record Put writes for
// it. A line longer than the record ceiling (wal.MaxRecord) fails the
// import.
func (s *Store) Import(r io.Reader) (ImportResult, error) {
	var res ImportResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), wal.MaxRecord)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, rep, err := decodeRecord(line)
		if err != nil {
			res.Rejected++
			continue
		}
		if rec.Addr != "" && rec.Addr != addr(rec.Key) {
			res.Rejected++
			continue
		}
		fb, err := encodeFrame(rec.Key, rec.Created, rep)
		if err != nil {
			res.Rejected++
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			releaseFrame(fb)
			return res, ErrClosed
		}
		if _, exists := s.index[rec.Key]; exists {
			s.mu.Unlock()
			releaseFrame(fb)
			res.Skipped++
			continue
		}
		err = s.appendTo(&s.view, rec.Key, *fb, rec.Created)
		releaseFrame(fb)
		overflow := s.view.bytes() > s.opt.MaxBytes
		if err == nil && overflow {
			err = s.compactLocked()
		}
		s.mu.Unlock()
		if err != nil {
			s.ioErrs.Add(1)
			res.Rejected++
			continue
		}
		res.Added++
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("store: reading corpus: %w", err)
	}
	s.puts.Add(int64(res.Added))
	return res, nil
}

// Close releases the segment file handles. Get degrades to misses and
// Put to no-ops afterwards, so a cache still holding the store as its
// tier keeps working (memory-only) during shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.view.close(false)
}
