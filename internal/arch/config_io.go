package arch

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// MarshalJSON-friendly persistence: configurations round-trip through JSON
// so users can define custom accelerators for cmd/inca-sim without
// recompiling. All fields of Config, mem.Buffer, mem.DRAM and rram.Device
// are exported, so the standard encoder captures the full state.

// WriteJSON serializes the configuration to w, indented.
func (c Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("arch: encoding config: %w", err)
	}
	return nil
}

// Save writes the configuration to a JSON file.
func (c Config) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("arch: %w", err)
	}
	defer f.Close()
	return c.WriteJSON(f)
}

// ReadJSON parses a configuration from r and validates it.
func ReadJSON(r io.Reader) (Config, error) {
	c, err := DecodeJSON(r)
	if err != nil {
		return Config{}, err
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// DecodeJSON parses a configuration from r, rejecting unknown fields,
// without validating it. It is for configurations a backend ignores,
// such as the GPU model's zero Config; everything else uses ReadJSON.
func DecodeJSON(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("arch: decoding config: %w", err)
	}
	return c, nil
}

// Load reads and validates a configuration from a JSON file.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("arch: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}
