package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/inca-arch/inca/internal/store"
)

// storeStatsResponse is the GET /v1/store/stats payload: the store's
// own counters plus the cache-level disk_hits they feed.
type storeStatsResponse struct {
	Store store.Stats `json:"store"`
	// DiskHits is the sweep cache's count of Do calls served from the
	// store instead of simulating — the warm-start dividend.
	DiskHits int64 `json:"disk_hits"`
}

// requireStore answers 404 when the server runs without a persistent
// store, mirroring handleTrace's disabled-feature idiom.
func (s *Server) requireStore(w http.ResponseWriter) *store.Store {
	st := s.opt.Store
	if st == nil {
		s.writeError(w, http.StatusNotFound, errors.New("no result store is attached to this server (start with -store-dir)"))
		return nil
	}
	return st
}

// handleStoreStats serves the persistent store's counters.
func (s *Server) handleStoreStats(w http.ResponseWriter, _ *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	s.writeJSON(w, http.StatusOK, storeStatsResponse{Store: st.Stats(), DiskHits: s.cache.DiskHits()})
}

// handleStoreExport streams the store's corpus as JSON lines — one
// record per line, key-sorted, byte-stable — for transfer to another
// fleet member's POST /v1/store/import.
func (s *Server) handleStoreExport(w http.ResponseWriter, _ *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := st.Export(w); err != nil {
		// Headers are gone; all we can do is log and cut the stream.
		s.log.Error("exporting store corpus", "err", err)
	}
}

// handleStoreImport merges an exported corpus into the store. The body
// is bounded by StoreImportMaxBytes (not the request-level
// MaxBodyBytes: corpora are legitimately large), and each line by the
// store's own per-record ceiling. Records already present are skipped;
// records whose content hash does not match their claimed key are
// rejected, and a partial import still reports what landed.
func (s *Server) handleStoreImport(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opt.StoreImportMaxBytes)
	res, err := st.Import(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("import body exceeds %d bytes", tooBig.Limit))
		case errors.Is(err, io.ErrUnexpectedEOF):
			s.writeError(w, http.StatusBadRequest, err)
		default:
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("importing corpus: %w", err))
		}
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}
