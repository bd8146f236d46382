// store.go is the optional on-disk layer under the in-memory LRU: cell
// results and trial recordings persisted as plain files named by content
// address, so a restarted server (or a colleague pointed at the same
// directory) serves warm bytes without re-simulating. Writes are atomic and
// durable (temp file, fsync, rename in the same directory), and reads check
// that the bytes decode to the result the address names and are canonical,
// so a truncated, foreign or reformatted file is a miss —
// removed and recomputed — never served.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// diskStore persists result bytes under dir/cells/<address>.json and
// replay bytes under dir/replays/<address>-<seed>.json. Addresses are
// lowercase hex SHA-256 (path-safe by construction); the methods are safe
// for concurrent use because distinct keys touch distinct files and equal
// keys always carry equal bytes.
type diskStore struct {
	dir string
}

// newDiskStore creates the store's directory layout.
func newDiskStore(dir string) (*diskStore, error) {
	for _, sub := range []string{"cells", "replays"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: store dir: %w", err)
		}
	}
	return &diskStore{dir: dir}, nil
}

func (d *diskStore) cellPath(key string) string {
	return filepath.Join(d.dir, "cells", key+".json")
}

func (d *diskStore) replayPath(key string, seed int) string {
	return filepath.Join(d.dir, "replays", fmt.Sprintf("%s-%d.json", key, seed))
}

// read returns the bytes at path when valid accepts them, or nil. A file
// valid rejects is removed, so the recompute's write replaces it.
func (d *diskStore) read(path string, valid func([]byte) bool) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	if !valid(b) {
		os.Remove(path)
		return nil
	}
	return b
}

// write atomically persists b at path; errors are returned so the caller
// can log them, but a failed persist never fails the request — the disk
// layer is an accelerator, not the source of truth.
func (d *diskStore) write(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// canonical reports whether b is its own re-encoding, compact and
// HTML-escaped: exactly what the server writes. Grid bodies stitch cached
// cells verbatim and replays are served as stored, so a disk read in any
// other form is a miss, never served.
func canonical(b []byte) bool {
	c, err := json.Marshal(json.RawMessage(b))
	return err == nil && bytes.Equal(c, b)
}

// getCell returns the persisted result bytes for the address: nil if absent,
// not a CellResult carrying that address, or not canonical.
func (d *diskStore) getCell(key string) []byte {
	return d.read(d.cellPath(key), func(b []byte) bool {
		var cr CellResult
		return json.Unmarshal(b, &cr) == nil && cr.Hash == key && canonical(b)
	})
}

// putCell persists the result bytes for the address.
func (d *diskStore) putCell(key string, b []byte) error { return d.write(d.cellPath(key), b) }

// getReplay returns the persisted replay bytes: nil if absent, not a
// ReplayResult carrying that address and seed, or not canonical.
func (d *diskStore) getReplay(key string, seed int) []byte {
	return d.read(d.replayPath(key, seed), func(b []byte) bool {
		var rr ReplayResult
		return json.Unmarshal(b, &rr) == nil && rr.Hash == key && rr.Seed == seed && canonical(b)
	})
}

// putReplay persists the replay bytes.
func (d *diskStore) putReplay(key string, seed int, b []byte) error {
	return d.write(d.replayPath(key, seed), b)
}
