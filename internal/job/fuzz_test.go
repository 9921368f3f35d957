package job

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/inca-arch/inca/internal/wal"
)

// journalBytes frames JSON payloads as a journal file.
func journalBytes(payloads ...string) []byte {
	b := []byte(jnlMagic)
	for _, p := range payloads {
		b = append(b, wal.Frame([]byte(p))...)
	}
	return b
}

// FuzzJournalReplay feeds arbitrary bytes to Open as the job journal.
// Open must never panic, and a journal that opens must reopen to the
// same job table: the first open already truncated whatever it could
// not replay, so the second replays exactly what the first kept.
func FuzzJournalReplay(f *testing.F) {
	const submit = `{"op":"submit","id":"j1","spec":"{\"models\":[\"LeNet5\"]}","created_unix_nano":1}`
	f.Add([]byte{})
	f.Add([]byte(jnlMagic))
	f.Add(journalBytes(submit))
	f.Add(journalBytes(submit,
		`{"op":"run","id":"j1","attempt":1}`,
		`{"op":"trace","id":"j1","trace_id":"0af7651916cd43dd8448eb211c80319c","span_id":"b7ad6b7169203331"}`,
		`{"op":"progress","id":"j1","total":4,"done":2}`,
		`{"op":"cost","id":"j1","cost":"{\"wall_s\":1,\"cells\":4}"}`,
		`{"op":"done","id":"j1","state":"succeeded","body":"{\"ok\":1}\n"}`))
	f.Add(journalBytes(submit, `{"op":"resume","id":"j1"}`, `{"op":"done","id":"j1","state":"failed","error":"boom"}`))
	f.Add(journalBytes(submit, submit, `{"op":"run","id":"nope"}`, `{"op":"future","id":"j1"}`))
	f.Add(journalBytes(submit, `{"op":"done","id":"j1","state":"sideways"}`))
	f.Add(append(journalBytes(submit), 0x40, 0, 0, 0, 1, 2, 3, 4, 'p', 'a', 'r', 't'))
	f.Add(journalBytes(submit, `not json`, `{"op":"run","id":"j1","attempt":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(dir, Options{})
		if err != nil {
			return
		}
		jobs := m.List()
		bodies := make([][]byte, len(jobs))
		costs := make([][]byte, len(jobs))
		for i, s := range jobs {
			bodies[i], _, _ = m.Result(s.ID)
			costs[i], _ = m.Cost(s.ID)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		m2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("journal opened once but not twice: %v", err)
		}
		defer m2.Close()
		if got := m2.List(); !reflect.DeepEqual(got, jobs) {
			t.Fatalf("reopened job table differs:\n%+v\nvs\n%+v", got, jobs)
		}
		for i, s := range jobs {
			body, _, _ := m2.Result(s.ID)
			c, _ := m2.Cost(s.ID)
			if !bytes.Equal(body, bodies[i]) || !bytes.Equal(c, costs[i]) {
				t.Fatalf("job %s: reopened body/cost %q/%q, want %q/%q", s.ID, body, c, bodies[i], costs[i])
			}
		}
	})
}
