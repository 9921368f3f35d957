package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "WALTEST1"

// TestFrameBytes pins the on-disk record format byte for byte: segment
// and journal files written by earlier releases must keep replaying.
func TestFrameBytes(t *testing.T) {
	got := Frame([]byte("hi"))
	want := []byte{
		0x02, 0x00, 0x00, 0x00, // payload length, little-endian
		0xac, 0x2a, 0x93, 0xd8, // IEEE CRC-32 of "hi", little-endian
		'h', 'i',
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Frame(hi) = % x, want % x", got, want)
	}

	path := filepath.Join(t.TempDir(), "log")
	l, err := Create(path, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte(`{"k":1}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]byte(testMagic),
		0x07, 0x00, 0x00, 0x00,
		0x0e, 0xb4, 0xab, 0x1c,
		'{', '"', 'k', '"', ':', '1', '}')
	if !bytes.Equal(file, want) {
		t.Fatalf("log file = % x, want % x", file, want)
	}
}

// openAll opens the log at path and collects every replayed payload.
func openAll(t *testing.T, path string, create bool) (*Log, [][]byte, bool) {
	t.Helper()
	var got [][]byte
	l, torn, err := Open(path, testMagic, create, func(_ int64, p []byte) bool {
		got = append(got, p)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, got, torn
}

func TestOpenRecoversTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, torn := openAll(t, path, true)
	if torn || l.Size() != int64(len(testMagic)) {
		t.Fatalf("fresh log: torn=%v size=%d", torn, l.Size())
	}
	var offs []int64
	for _, p := range []string{"one", "two"} {
		off, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if p, err := l.ReadAt(offs[1], HeaderLen+3); err != nil || string(p) != "two" {
		t.Fatalf("ReadAt = %q, %v", p, err)
	}
	good := l.Size()
	l.Close()

	// A crash mid-append leaves half a frame behind.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(Frame([]byte("three"))[:6])
	f.Close()

	l, got, torn := openAll(t, path, true)
	if !torn || len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("reopen: torn=%v payloads=%q", torn, got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != good || l.Size() != good {
		t.Fatalf("torn tail not truncated to %d bytes (log size %d)", good, l.Size())
	}
}

func TestOpenResetsBadMagic(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		content  string
		create   bool
		wantTorn bool
	}{
		"empty new log":       {"", true, false},
		"empty existing file": {"", false, true},
		"short magic":         {"WAL", true, true},
		"wrong magic":         {"NOTAWAL1" + string(Frame([]byte("x"))), true, true},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, torn := openAll(t, path, tc.create)
		file, _ := os.ReadFile(path)
		if torn != tc.wantTorn || len(got) != 0 || string(file) != testMagic || l.Size() != int64(len(testMagic)) {
			t.Errorf("%s: torn=%v payloads=%q file=%q size=%d", name, torn, got, file, l.Size())
		}
	}
	if _, _, err := Open(filepath.Join(dir, "missing"), testMagic, false, nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open without create on a missing file = %v", err)
	}
}

func TestOpenStopsAtRejectedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	content := testMagic + string(Frame([]byte("ok"))) + string(Frame([]byte("bad"))) + string(Frame([]byte("after")))
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	l, torn, err := Open(path, testMagic, false, func(_ int64, p []byte) bool {
		if string(p) == "bad" {
			return false
		}
		got = append(got, string(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if want := int64(len(testMagic) + HeaderLen + 2); !torn || len(got) != 1 || l.Size() != want {
		t.Fatalf("torn=%v payloads=%q size=%d, want one payload and size %d", torn, got, l.Size(), want)
	}
}

func TestAppendAndReadAtReject(t *testing.T) {
	l, _, _ := openAll(t, filepath.Join(t.TempDir(), "log"), true)
	for _, p := range [][]byte{nil, make([]byte, MaxRecord+1)} {
		if _, err := l.Append(p); !errors.Is(err, ErrRecordSize) {
			t.Fatalf("Append(%d bytes) = %v, want ErrRecordSize", len(p), err)
		}
	}
	off, err := l.Append([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadAt(off, HeaderLen+6); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt with the wrong size = %v, want ErrCorrupt", err)
	}
	if _, err := l.f.WriteAt([]byte("X"), off+HeaderLen); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadAt(off, HeaderLen+7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt over a flipped byte = %v, want ErrCorrupt", err)
	}
}

// TestAppendFrameFillsHeaderInPlace pins the in-place write path: the
// reserved header bytes are overwritten whatever they held, the record
// on disk equals Frame of the payload, and a frame with no payload or an
// oversized one is refused.
func TestAppendFrameFillsHeaderInPlace(t *testing.T) {
	l, _, _ := openAll(t, filepath.Join(t.TempDir(), "log"), true)
	frame := append(bytes.Repeat([]byte{0xff}, HeaderLen), "payload"...)
	off, err := l.AppendFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := Frame([]byte("payload")); !bytes.Equal(frame, want) {
		t.Fatalf("sealed frame = % x, want % x", frame, want)
	}
	if p, err := l.ReadAt(off, int64(len(frame))); err != nil || string(p) != "payload" {
		t.Fatalf("ReadAt = %q, %v", p, err)
	}
	for _, n := range []int{0, HeaderLen, HeaderLen + MaxRecord + 1} {
		if _, err := l.AppendFrame(make([]byte, n)); !errors.Is(err, ErrRecordSize) {
			t.Fatalf("AppendFrame(%d bytes) = %v, want ErrRecordSize", n, err)
		}
	}
	if l.Size() != off+int64(len(frame)) {
		t.Fatalf("refused frames moved the tail to %d", l.Size())
	}
}

// FuzzScan feeds arbitrary bytes to Scan. It must never panic; the
// offset it returns must lie on a record boundary within the input; and
// the payloads it accepted, framed again behind the magic, must rebuild
// the input's intact prefix exactly. Payloads starting with '!' are
// rejected by the visitor, which exercises the caller-stop path. Seeds
// live in testdata/fuzz/FuzzScan.
func FuzzScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var offs []int64
		var payloads [][]byte
		end, err := Scan(bytes.NewReader(data), testMagic, func(off int64, p []byte) bool {
			if p[0] == '!' {
				return false
			}
			offs = append(offs, off)
			payloads = append(payloads, p)
			return true
		})
		if err != nil {
			if !errors.Is(err, ErrBadMagic) || bytes.HasPrefix(data, []byte(testMagic)) || len(payloads) > 0 {
				t.Fatalf("Scan = %v after %d payloads on input with magic %v", err, len(payloads), bytes.HasPrefix(data, []byte(testMagic)))
			}
			return
		}
		if end < int64(len(testMagic)) || end > int64(len(data)) {
			t.Fatalf("end %d outside [%d, %d]", end, len(testMagic), len(data))
		}
		rebuilt := []byte(testMagic)
		for i, p := range payloads {
			if offs[i] != int64(len(rebuilt)) {
				t.Fatalf("payload %d at offset %d, want %d", i, offs[i], len(rebuilt))
			}
			rebuilt = append(rebuilt, Frame(p)...)
		}
		if !bytes.Equal(rebuilt, data[:end]) {
			t.Fatalf("accepted payloads re-frame to % x, input prefix is % x", rebuilt, data[:end])
		}
	})
}
