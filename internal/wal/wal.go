// Package wal is the append-only record log under the result store's
// segments and the job journal. A log file starts with an 8-byte magic
// naming its format and then carries length-prefixed, checksummed
// records:
//
//	[4B little-endian payload length][4B IEEE CRC-32 of payload][payload]
//
// The CRC detects torn or bit-rotted tails; the length prefix is bounded
// by MaxRecord, so a corrupt one cannot allocate unboundedly. Only the
// tail of a log is ever appended to, so a crash can tear at most the
// final record: Open truncates a torn tail to the last intact record
// instead of failing, and the surviving prefix replays cleanly.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	// HeaderLen is the size of a record's length-and-CRC header.
	HeaderLen = 8
	// MaxRecord bounds one record's payload. The largest legitimate
	// records (a full ImageNet report, a huge sweep's job result body)
	// are far smaller, and the bound rejects a corrupt length prefix
	// before it allocates gigabytes.
	MaxRecord = 16 << 20
)

var (
	// ErrBadMagic reports a log that does not start with its magic.
	ErrBadMagic = errors.New("wal: missing or wrong magic")
	// ErrCorrupt reports a record whose frame or checksum does not
	// match what was asked for.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrRecordSize reports an append of an empty payload or one larger
	// than MaxRecord: neither would read back.
	ErrRecordSize = errors.New("wal: record payload must hold 1 byte to 16 MiB")
)

// Frame returns payload framed as one record.
func Frame(payload []byte) []byte {
	frame := reserve(payload)
	seal(frame)
	return frame
}

// reserve copies payload behind HeaderLen bytes left for its header.
func reserve(payload []byte) []byte {
	return append(make([]byte, HeaderLen, HeaderLen+len(payload)), payload...)
}

// seal fills a frame's header in place with the length and CRC of the
// payload behind it, frame[HeaderLen:].
func seal(frame []byte) {
	payload := frame[HeaderLen:]
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:HeaderLen], crc32.ChecksumIEEE(payload))
}

// Scan reads a log from r: the magic, then each record in order. visit
// is called with every intact record's offset and payload; returning
// false stops the scan before that record, as a torn or corrupt frame
// does. Scan returns the offset just past the last accepted record —
// the length of the log's intact prefix — or ErrBadMagic when r does
// not start with magic. Read errors end the scan like a torn tail: the
// prefix before them is all that can be trusted.
func Scan(r io.Reader, magic string, visit func(off int64, payload []byte) bool) (int64, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil || string(head) != magic {
		return 0, ErrBadMagic
	}
	off := int64(len(magic))
	var header [HeaderLen]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return off, nil // clean end or torn header
		}
		n := binary.LittleEndian.Uint32(header[:4])
		if n == 0 || n > MaxRecord {
			return off, nil // corrupt length: everything past here is suspect
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:]) {
			return off, nil // bit rot or a torn write caught by the CRC
		}
		if !visit(off, payload) {
			return off, nil // framed but rejected by the caller
		}
		off += HeaderLen + int64(n)
	}
}

// Log is one open log file, appended at its tail. Append and Close must
// be serialized by the caller; ReadAt may run concurrently with them.
type Log struct {
	f    *os.File
	size int64
}

// Open opens the log at path and recovers it: visit sees every intact
// record (see Scan), and whatever follows the intact prefix — a torn or
// corrupt tail — is truncated away so the file is clean for appends. A
// file whose magic is missing or wrong holds nothing recoverable and is
// re-initialized empty. torn reports that either happened.
//
// With create set, a missing or empty file is a new log and nothing is
// torn. Without it the file must exist, and an empty one counts as torn:
// its magic was lost.
func Open(path, magic string, create bool, visit func(off int64, payload []byte) bool) (l *Log, torn bool, err error) {
	flag := os.O_RDWR
	if create {
		flag |= os.O_CREATE
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	end, err := Scan(bufio.NewReader(io.NewSectionReader(f, 0, fi.Size())), magic, visit)
	if err != nil {
		// Nothing recoverable: re-initialize as an empty log.
		if err := f.Truncate(0); err != nil {
			return nil, false, err
		}
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			return nil, false, err
		}
		return &Log{f: f, size: int64(len(magic))}, !create || fi.Size() > 0, nil
	}
	if end < fi.Size() {
		if err := f.Truncate(end); err != nil {
			return nil, false, fmt.Errorf("truncating torn tail of %s: %w", path, err)
		}
		torn = true
	}
	return &Log{f: f, size: end}, torn, nil
}

// Create creates a new, empty log at path; the file must not exist.
func Create(path, magic string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, size: int64(len(magic))}, nil
}

// Size returns the log's length in bytes, magic included.
func (l *Log) Size() int64 { return l.size }

// Append frames payload and writes it at the tail, returning the
// record's offset; the record's framed length is HeaderLen+len(payload).
// It copies payload once; a writer that can build its payload behind a
// reserved header calls AppendFrame instead.
func (l *Log) Append(payload []byte) (int64, error) {
	return l.AppendFrame(reserve(payload))
}

// AppendFrame writes one record at the tail and returns its offset. frame
// is the whole record: HeaderLen reserved bytes, which AppendFrame fills
// in place with the length and CRC, followed by the payload. The record
// goes out in one write with no copy, and its framed length is len(frame).
func (l *Log) AppendFrame(frame []byte) (int64, error) {
	if len(frame) <= HeaderLen || len(frame) > HeaderLen+MaxRecord {
		return 0, ErrRecordSize
	}
	seal(frame)
	off := l.size
	if _, err := l.f.WriteAt(frame, off); err != nil {
		return 0, err
	}
	l.size += int64(len(frame))
	return off, nil
}

// ReadAt reads the record of the given framed length at off and returns
// its payload once the frame and CRC check out.
func (l *Log) ReadAt(off, size int64) ([]byte, error) {
	if size < HeaderLen || size > HeaderLen+MaxRecord {
		return nil, ErrCorrupt
	}
	buf := make([]byte, size)
	if _, err := l.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if int64(n)+HeaderLen != size || crc32.ChecksumIEEE(buf[HeaderLen:]) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, ErrCorrupt
	}
	return buf[HeaderLen:], nil
}

// Close releases the file.
func (l *Log) Close() error { return l.f.Close() }
