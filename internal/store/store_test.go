package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func open(t *testing.T, schema uint32) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), schema)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, 1)
	key := "cfg|workload|policy/static-7"
	payload := []byte(`{"TotalCycles":12345}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit before any Put")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = (%q, %v), want (%q, true)", got, ok, payload)
	}
	// Overwrite is atomic replacement, not append.
	if err := s.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "v2" {
		t.Fatalf("after overwrite Get = (%q, %v)", got, ok)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 2 puts", st)
	}
	if n, b := s.Len(); n != 1 || b <= 0 {
		t.Errorf("Len = (%d, %d), want one sized entry", n, b)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", 1); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestEmptyPayloadAndBigKey(t *testing.T) {
	s := open(t, 1)
	key := string(bytes.Repeat([]byte("k"), 4096))
	if err := s.Put(key, nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || len(got) != 0 {
		t.Fatalf("Get = (%q, %v), want empty hit", got, ok)
	}
}

// corrupt rewrites the single entry file under s.dir via mutate.
func corruptEntry(t *testing.T, s *Store, mutate func([]byte) []byte) {
	t.Helper()
	var path string
	filepath.WalkDir(s.dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(p) == entryExt {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatal("no entry file found")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(blob), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Every corruption mode must read as a miss (recompute), never as a
// payload, and structural damage must be counted and cleaned up.
func TestCorruptionReadsAsMiss(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func([]byte) []byte
		wantStale bool // version skew, not damage
	}{
		{"truncated-header", func(b []byte) []byte { return b[:headerLen-5] }, false},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-3] }, false},
		{"empty-file", func(b []byte) []byte { return nil }, false},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, false},
		{"bad-format-version", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:12], Format+7)
			return b
		}, true},
		{"bad-schema-version", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[12:16], 99)
			return b
		}, true},
		{"flipped-payload-bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, false},
		{"key-mismatch", func(b []byte) []byte {
			// Flip a key byte: the CRC still matches the payload, but
			// the stored key no longer matches the requested one (the
			// shape of a hash collision).
			b[headerLen] ^= 0xff
			return b
		}, false},
		{"appended-junk", func(b []byte) []byte { return append(b, "junk"...) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, 1)
			if err := s.Put("the-key", []byte("the-payload")); err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, s, tc.mutate)
			if got, ok := s.Get("the-key"); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			st := s.Stats()
			if st.Misses != 1 {
				t.Errorf("misses = %d, want 1", st.Misses)
			}
			if tc.wantStale {
				if st.Stale != 1 || st.Corrupt != 0 {
					t.Errorf("stats = %+v, want stale=1 corrupt=0", st)
				}
			} else {
				if st.Corrupt != 1 {
					t.Errorf("stats = %+v, want corrupt=1", st)
				}
				// Structural damage is cleaned up so the next Put
				// repairs it and the next Get is a plain miss.
				if n, _ := s.Len(); n != 0 {
					t.Errorf("corrupt entry not removed (%d entries)", n)
				}
			}
			// Recompute-and-Put repairs every mode.
			if err := s.Put("the-key", []byte("the-payload")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("the-key"); !ok || string(got) != "the-payload" {
				t.Fatalf("after repair Get = (%q, %v)", got, ok)
			}
		})
	}
}

// Lengths near the top of their ranges must not wrap the bounds
// checks: keyLen 0xFFFFFFFF with a payloadLen chosen so the uint64 sum
// of header, key and payload lengths wraps to the file size used to
// slice blob[32:31] and panic.
func TestDecodeWrappedLengths(t *testing.T) {
	entry := func(keyLen uint32, payloadLen uint64, size int) []byte {
		b := make([]byte, size)
		copy(b, magic)
		binary.BigEndian.PutUint32(b[8:12], Format)
		binary.BigEndian.PutUint32(b[12:16], 1)
		binary.BigEndian.PutUint32(b[16:20], keyLen)
		binary.BigEndian.PutUint64(b[24:32], payloadLen)
		return b
	}
	cases := map[string][]byte{
		"key-wraps-sum":    entry(0xFFFFFFFF, wrappedPayloadLen(40, 0xFFFFFFFF), 40),
		"key-past-end-sum": entry(20, wrappedPayloadLen(44, 20), 44),
		"key-past-end":     entry(9, 0, 40),
		"payload-at-max":   entry(0, 1<<64-1, 40),
	}
	for name, blob := range cases {
		if payload, ok, stale := decode(blob, "", 1); ok || stale {
			t.Errorf("%s: decode = (%q, %v, %v), want corrupt", name, payload, ok, stale)
		}
	}
	s := open(t, 1)
	corruptFile(t, s, "the-key", cases["key-wraps-sum"])
	if got, ok := s.Get("the-key"); ok {
		t.Fatalf("wrapped entry served as a hit: %q", got)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("stats = %+v, want corrupt=1", st)
	}
}

// wrappedPayloadLen returns the payload length for which the uint64 sum
// headerLen+keyLen+payloadLen wraps around to size.
func wrappedPayloadLen(size, keyLen uint64) uint64 { return size - headerLen - keyLen }

// corruptFile writes blob as the entry file for key.
func corruptFile(t testing.TB, s *Store, key string, blob []byte) {
	t.Helper()
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzStoreGet puts arbitrary bytes at an entry's path. Get must never
// panic, and it may only hit when the bytes are exactly the entry a Put
// of the returned payload writes; everything else reads as a miss.
func FuzzStoreGet(f *testing.F) {
	const key = "the-key"
	ref, err := Open(f.TempDir(), 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := ref.Put(key, []byte("the-payload")); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(ref.path(key))
	if err != nil {
		f.Fatal(err)
	}
	wrapped := append([]byte(nil), valid[:40]...)
	binary.BigEndian.PutUint32(wrapped[16:20], 0xFFFFFFFF)
	binary.BigEndian.PutUint64(wrapped[24:32], wrappedPayloadLen(40, 0xFFFFFFFF))
	for _, seed := range [][]byte{valid, wrapped, valid[:headerLen], valid[:len(valid)-1], nil} {
		f.Add(seed)
	}
	s, err := Open(f.TempDir(), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		corruptFile(t, s, key, blob)
		got, ok := s.Get(key)
		if !ok {
			return
		}
		if err := ref.Put(key, got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(ref.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("hit %q from bytes %x that a Put of it would not write (%x)", got, blob, want)
		}
	})
}

// A schema bump must invalidate old entries without touching files
// written under the new schema.
func TestSchemaUpgradeInvalidates(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("k"); ok {
		t.Fatal("schema-1 entry served under schema 2")
	}
	if st := s2.Stats(); st.Stale != 1 {
		t.Errorf("stats = %+v, want stale=1", st)
	}
	if err := s2.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "new" {
		t.Fatalf("Get = (%q, %v) after rewrite", got, ok)
	}
}

// Concurrent writers to overlapping keys must never produce a torn or
// mixed read: every Get observes one writer's complete payload.
func TestConcurrentWriters(t *testing.T) {
	s := open(t, 1)
	const writers, rounds, keys = 8, 50, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("key-%d", r%keys)
				payload := bytes.Repeat([]byte{byte('a' + w)}, 256)
				if err := s.Put(key, payload); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if got, ok := s.Get(key); ok {
					for _, b := range got[1:] {
						if b != got[0] {
							t.Errorf("torn read: mixed payload %q...", got[:8])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 || st.PutErrors != 0 {
		t.Errorf("stats = %+v, want zero corrupt/putErrors", st)
	}
	// No temp files may survive.
	matches, _ := filepath.Glob(filepath.Join(s.Dir(), ".tmp-*"))
	if len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
	if n, _ := s.Len(); n != keys {
		t.Errorf("Len = %d entries, want %d", n, keys)
	}
}

// Fan-out must place entries under two-hex-digit subdirectories.
func TestFanOutLayout(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sub, _ := filepath.Glob(filepath.Join(s.Dir(), "??", "*"+entryExt))
	if len(sub) != 1 {
		t.Fatalf("entry not under fan-out dir: %v", sub)
	}
}
