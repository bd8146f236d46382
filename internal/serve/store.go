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

// path is where e's bytes persist.
func (d *diskStore) path(e entry) string {
	if e.replay {
		return filepath.Join(d.dir, "replays", fmt.Sprintf("%s-%d.json", e.key, e.seed))
	}
	return filepath.Join(d.dir, "cells", e.key+".json")
}

// get returns e's persisted bytes: nil if absent, not the CellResult (or
// the ReplayResult, with e's seed) carrying e's address, or not canonical.
// A file it rejects is removed, so the recompute's write replaces it.
func (d *diskStore) get(e entry) []byte {
	path := d.path(e)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	valid := canonical(b)
	if e.replay {
		var rr ReplayResult
		valid = valid && json.Unmarshal(b, &rr) == nil && rr.Hash == e.key && rr.Seed == e.seed
	} else {
		var cr CellResult
		valid = valid && json.Unmarshal(b, &cr) == nil && cr.Hash == e.key
	}
	if !valid {
		os.Remove(path)
		return nil
	}
	return b
}

// put atomically persists e's bytes.
func (d *diskStore) put(e entry, b []byte) error { return d.write(d.path(e), b) }

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
