package dataflow

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/inca-arch/inca/internal/arch"
)

// The process-wide registry. Backends register from init, so after
// program initialization the registry is effectively read-only; the
// mutex makes registration from tests safe too.
var (
	regMu   sync.RWMutex
	reg     = make(map[string]*Backend)
	aliases = make(map[string]string)
)

// Register adds b to the registry under b.Caps.ID plus the display
// names from its capabilities and default configuration (so legacy arch
// names like "INCA" and "WS-Baseline" resolve to the right backend). It
// panics on a nil backend or a duplicate or empty ID — registration
// happens in init, and a collision is a programming error, not a
// runtime condition.
func Register(b *Backend) {
	if b == nil {
		panic("dataflow: Register called with nil Backend")
	}
	id := strings.ToLower(b.Caps.ID)
	if id == "" {
		panic("dataflow: Register called with empty ID")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[id]; dup {
		panic(fmt.Sprintf("dataflow: Register called twice for %q", id))
	}
	reg[id] = b
	registerAliasLocked(id, b.Caps.Name)
	for _, a := range b.Caps.Aliases {
		registerAliasLocked(id, a)
	}
	if b.Default.Name != "" {
		registerAliasLocked(id, b.Default.Name)
	}
}

// registerAliasLocked maps a case-insensitive display name to id. First
// registration wins; an alias never shadows a real ID.
func registerAliasLocked(id, name string) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" || key == id {
		return
	}
	if _, taken := aliases[key]; !taken {
		aliases[key] = id
	}
}

// Get returns the backend registered under id. The lookup is
// case-insensitive and accepts registered display names (arch names) as
// well as IDs; unknown names report ErrUnknownDataflow.
func Get(id string) (*Backend, error) {
	key, ok := Normalize(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownDataflow, id, strings.Join(IDs(), ", "))
	}
	regMu.RLock()
	defer regMu.RUnlock()
	return reg[key], nil
}

// Normalize resolves a user-facing name — a registry ID, a registered
// display name such as "INCA" or "WS-Baseline", or either in any case —
// to its canonical registry ID. ok is false for unknown names.
func Normalize(name string) (id string, ok bool) {
	key := strings.ToLower(strings.TrimSpace(name))
	regMu.RLock()
	defer regMu.RUnlock()
	if _, hit := reg[key]; hit {
		return key, true
	}
	if canon, hit := aliases[key]; hit {
		return canon, true
	}
	return "", false
}

// FromConfig returns the canonical registry ID for cfg's Dataflow enum
// value ("ws", "is", or "os"). The mapping is static — the enum is the
// wire-stable part of arch.Config — so it works even before the
// matching backend registers.
func FromConfig(cfg arch.Config) string {
	switch cfg.Dataflow {
	case arch.InputStationary:
		return "is"
	case arch.OutputStationary:
		return "os"
	default:
		return "ws"
	}
}

// IDs returns the registered backend IDs in sorted order.
func IDs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns the registered backends in ID order.
func All() []*Backend {
	ids := IDs()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Backend, len(ids))
	for i, id := range ids {
		out[i] = reg[id]
	}
	return out
}
