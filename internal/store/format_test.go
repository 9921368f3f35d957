package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// segMagicOf returns the magic a segment file starts with.
func segMagicOf(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data[:min(len(data), len(magicV2))])
}

// exportOf returns a store's corpus.
func exportOf(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMixedFormatSegments opens a directory that holds the
// testdata/twopass v1 segment between two v2 segments, each of which
// also holds a key the v1 segment holds. The newest copy of each key
// serves, whichever format holds it; a Put rolls to a fresh v2 segment
// and leaves the v1 file's bytes alone; and compaction leaves only v2
// segments and the same export, which survives an import into a fresh
// store byte for byte.
func TestMixedFormatSegments(t *testing.T) {
	v1, recs := readTwoPass(t)
	older, newer := recs[0], recs[1]
	dir := t.TempDir()

	s := mustOpen(t, dir, Options{})
	s.Put(older.key, testReport("superseded"))
	s.Close()
	v1Path := filepath.Join(dir, "seg-000001.log")
	if err := os.WriteFile(v1Path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	s.Put(newer.key, testReport("newest"))
	s.Close()
	for _, name := range []string{"seg-000000.log", "seg-000002.log"} {
		if m := segMagicOf(t, filepath.Join(dir, name)); m != magicV2 {
			t.Fatalf("%s starts with %q, want %q", name, m, magicV2)
		}
	}
	if got, err := os.ReadFile(v1Path); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("Put after Open changed the v1 segment (%v)", err)
	}

	s = mustOpen(t, dir, Options{})
	if st := s.Stats(); st.Entries != len(recs) || st.Segments != 3 || st.TornRecords != 0 {
		t.Fatalf("stats after open = %+v, want %d entries in 3 segments", st, len(recs))
	}
	for _, r := range recs {
		got, ok := s.Get(r.key)
		switch {
		case !ok:
			t.Fatalf("Get(%q) missed", r.key)
		case r.key == newer.key:
			if got.Network != "newest" {
				t.Fatalf("Get(%q) served %q, want the newer v2 copy", r.key, got.Network)
			}
		default:
			want, _ := json.Marshal(r.rep)
			if body, _ := json.Marshal(got); !bytes.Equal(body, want) {
				t.Fatalf("Get(%q) = %.200s, want the v1 copy %.200s", r.key, body, want)
			}
		}
	}

	before := exportOf(t, s)
	if !bytes.Contains(before, older.payload) || bytes.Contains(before, newer.payload) {
		t.Fatal("export does not hold the newest copy of each key")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments after compaction: %v, %v", segs, err)
	}
	for _, seg := range segs {
		if m := segMagicOf(t, seg); m != magicV2 {
			t.Fatalf("%s starts with %q after compaction, want %q", seg, m, magicV2)
		}
	}
	if after := exportOf(t, s); !bytes.Equal(after, before) {
		t.Fatalf("export changed across compaction:\n%s\nvs\n%s", after, before)
	}
	s.Close()
	if again := exportOf(t, mustOpen(t, dir, Options{})); !bytes.Equal(again, before) {
		t.Fatal("export changed across a reopen of the compacted store")
	}

	fresh := mustOpen(t, t.TempDir(), Options{})
	if res, err := fresh.Import(bytes.NewReader(before)); err != nil || res.Added != len(recs) {
		t.Fatalf("import of the export = %+v, %v; want %d added", res, err, len(recs))
	}
	if got := exportOf(t, fresh); !bytes.Equal(got, before) {
		t.Fatal("export changed across an export → import round trip")
	}
}

// TestNewerSegmentVersionFailsOpen pins downgrade safety: a segment
// whose magic names a format version this binary does not read fails
// Open with an error naming the file and the version, and is left
// as it was rather than re-initialized.
func TestNewerSegmentVersionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put("k", testReport("k"))
	s.Close()
	path := filepath.Join(dir, "seg-000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(magicPrefix+"3"), data[len(magicV2):]...)
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("Open of a version-3 segment = %v, want an error naming %s and version 3", err, path)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, future) {
		t.Fatalf("the version-3 segment was modified (%v)", err)
	}
}
