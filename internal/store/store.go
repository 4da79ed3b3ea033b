// Package store implements a disk-persistent content-addressed blob
// store: the durable half of the run cache. Keys are the same content
// addresses internal/core composes for its in-memory run cache
// (machine config x workload x policy x mode); values are opaque
// payloads the caller serializes (core persists JSON-encoded
// RunResults).
//
// Design constraints, in order:
//
//   - Never serve garbage. Every entry carries a fixed header (magic,
//     format version, caller schema version, key and payload lengths,
//     payload CRC) plus the full key; any mismatch — truncation, stale
//     version, hash collision, bit rot — reads as a miss and the
//     caller recomputes. A corrupt file is deleted best-effort so the
//     recompute's Put repairs it.
//   - Never tear. Writes go to a private temp file in the store
//     directory, are synced, and are published with os.Rename, which
//     is atomic on POSIX filesystems: readers (including other
//     processes sharing the directory) observe either the old complete
//     entry or the new complete entry, nothing in between. Concurrent
//     writers of the same key race benignly — both write identical
//     content-addressed payloads and the last rename wins.
//   - Stay cheap. One file per entry under a 256-way fan-out keeps
//     directories small; Get is a single ReadFile; no global index
//     exists to corrupt or lock.
//
// Eviction is intentionally absent here: bounded memory is the
// in-memory cache's job (runner.Cache.SetLimit); bounded disk is the
// operator's (the store directory can be deleted wholesale at any
// time, it is only ever a cache).
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Format is the on-disk container version. Bump it when the header
// layout changes; entries written under another format read as misses.
const Format = 1

// magic brands every entry file. Files that do not start with it are
// treated as corrupt, whatever their extension.
const magic = "FDTSTORE"

// headerLen is the fixed prefix before the key and payload:
// magic(8) + format(4) + schema(4) + keyLen(4) + crc(4) + payloadLen(8).
const headerLen = 32

// entryExt marks entry files; temp files use a ".tmp-*" prefix and are
// never picked up by Len or Get.
const entryExt = ".run"

// Stats counts store outcomes since Open.
type Stats struct {
	// Hits and Misses count Get outcomes. Misses include stale and
	// corrupt entries — every miss means the caller recomputes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Stale counts entries skipped because their format or schema
	// version did not match (a software upgrade, not damage).
	Stale uint64 `json:"stale"`
	// Corrupt counts entries rejected by structural checks: short
	// file, bad magic, length mismatch, key mismatch, CRC mismatch.
	Corrupt uint64 `json:"corrupt"`
	// Puts and PutErrors count writes and failed writes.
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"put_errors"`
}

// Store is a disk-backed content-addressed blob store rooted at one
// directory. All methods are safe for concurrent use by multiple
// goroutines and cooperating processes.
type Store struct {
	dir    string
	schema uint32

	hits, misses, stale, corrupt atomic.Uint64
	puts, putErrors              atomic.Uint64
}

// Open roots a store at dir (created if absent). schema is the
// caller's payload schema version: entries written under a different
// schema are misses, so a payload-format change only costs a
// recompute, never a misparse.
func Open(dir string, schema uint32) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, schema: schema}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its entry file: sha256 hex under a 256-way
// fan-out ("ab/ab12...run"). The full key is stored inside the entry,
// so a hash collision reads as corruption, not as the wrong value.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, name[:2], name+entryExt)
}

// Get returns the payload stored under key, or (nil, false) on any
// miss: absent, stale format or schema, or corrupt. Corrupt entries
// are removed best-effort so the caller's recompute repairs them.
func (s *Store) Get(key string) ([]byte, bool) {
	path := s.path(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok, stale := decode(blob, key, s.schema)
	if !ok {
		if stale {
			s.stale.Add(1)
		} else {
			s.corrupt.Add(1)
			os.Remove(path) // best effort; Put will rewrite it
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// decode validates one entry file against the expected key and schema.
// It reports (payload, ok, stale); stale distinguishes version skew
// (benign) from structural damage.
func decode(blob []byte, key string, schema uint32) (payload []byte, ok, stale bool) {
	if len(blob) < headerLen || string(blob[:8]) != magic {
		return nil, false, false
	}
	format := binary.BigEndian.Uint32(blob[8:12])
	gotSchema := binary.BigEndian.Uint32(blob[12:16])
	keyLen := binary.BigEndian.Uint32(blob[16:20])
	crc := binary.BigEndian.Uint32(blob[20:24])
	payloadLen := binary.BigEndian.Uint64(blob[24:32])
	if format != Format || gotSchema != schema {
		return nil, false, true
	}
	// Both lengths come off the disk: compare them against what is
	// left after the header without adding them, so a crafted length
	// cannot wrap around.
	rest := uint64(len(blob) - headerLen)
	if uint64(keyLen) > rest || payloadLen != rest-uint64(keyLen) {
		return nil, false, false
	}
	keyEnd := headerLen + int(keyLen)
	if string(blob[headerLen:keyEnd]) != key {
		return nil, false, false
	}
	payload = blob[keyEnd:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, false, false
	}
	return payload, true, false
}

// Put stores payload under key, atomically replacing any previous
// entry. A failed Put leaves the previous entry (if any) intact.
func (s *Store) Put(key string, payload []byte) error {
	err := s.put(key, payload)
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	s.puts.Add(1)
	return nil
}

func (s *Store) put(key string, payload []byte) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}

	var hdr [headerLen]byte
	copy(hdr[:8], magic)
	binary.BigEndian.PutUint32(hdr[8:12], Format)
	binary.BigEndian.PutUint32(hdr[12:16], s.schema)
	binary.BigEndian.PutUint32(hdr[16:20], uint32(len(key)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint64(hdr[24:32], uint64(len(payload)))

	// The temp file lives beside the fan-out directories so the rename
	// never crosses a filesystem boundary.
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	for _, chunk := range [][]byte{hdr[:], []byte(key), payload} {
		if _, err := tmp.Write(chunk); err != nil {
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Len walks the store and reports the entry count and their total size
// on disk (headers included). It is a directory scan — cheap for the
// thousands-of-entries scale this store serves, but not free; stats
// endpoints should call it, hot paths should not.
func (s *Store) Len() (entries int, bytes int64) {
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != entryExt {
			return nil //nolint:nilerr // skip unreadable paths; this is accounting
		}
		if info, err := d.Info(); err == nil {
			entries++
			bytes += info.Size()
		}
		return nil
	})
	return entries, bytes
}

// Stats reports the store's counters since Open.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Stale:     s.stale.Load(),
		Corrupt:   s.corrupt.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrors.Load(),
	}
}
