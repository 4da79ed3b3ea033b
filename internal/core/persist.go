package core

import (
	"encoding/json"
	"sync"

	"fdt/internal/store"
)

// RunStoreSchema versions the persisted RunResult wire format (JSON of
// RunResult). Bump it whenever RunResult or anything it embeds changes
// shape in a way old payloads must not be decoded into — stale entries
// then read as misses and are recomputed, never misparsed. A changed
// stored value under an existing key needs a bump too: schema 2
// retires hill-climb runs stored with a zero BusBusyCycles.
const RunStoreSchema = 2

var (
	runStoreMu sync.Mutex
	runStore   *store.Store
)

// AttachRunStore backs the process-wide run cache with a disk store:
// cache misses consult the store before simulating, and every freshly
// simulated run is written through. Keys are the same content
// addresses the in-memory cache uses, so a CLI report run warms the
// daemon's store and vice versa. Passing nil detaches (equivalent to
// DetachRunStore).
//
// Values are persisted as JSON. encoding/json round-trips every
// RunResult field bit-exactly (shortest-float encoding), so a run
// served from the store is byte-identical, when re-marshaled, to the
// run that was stored — the property the daemon's restart-resilience
// test pins.
func AttachRunStore(s *store.Store) {
	runStoreMu.Lock()
	defer runStoreMu.Unlock()
	runStore = s
	if s == nil {
		runCache.SetBacking(nil, nil)
		return
	}
	runCache.SetBacking(
		func(key string) (RunResult, bool) {
			blob, ok := s.Get(key)
			if !ok {
				return RunResult{}, false
			}
			var r RunResult
			if err := json.Unmarshal(blob, &r); err != nil {
				// A payload that passed the store's CRC but does not
				// decode means the schema changed without a
				// RunStoreSchema bump; treat as a miss and overwrite.
				return RunResult{}, false
			}
			return r, true
		},
		func(key string, r RunResult) {
			blob, err := json.Marshal(r)
			if err != nil {
				return // unmarshalable results are simply not persisted
			}
			s.Put(key, blob) // best effort; Put counts its own errors
		},
	)
}

// DetachRunStore disconnects the run cache from any attached store.
// Tests use it to restore the process-global default.
func DetachRunStore() { AttachRunStore(nil) }

// OpenRunStore opens (creating if needed) a disk run store at dir
// under the current RunStoreSchema and attaches it to the run cache.
func OpenRunStore(dir string) (*store.Store, error) {
	s, err := store.Open(dir, RunStoreSchema)
	if err != nil {
		return nil, err
	}
	AttachRunStore(s)
	return s, nil
}

// RunStore returns the attached disk store, or nil.
func RunStore() *store.Store {
	runStoreMu.Lock()
	defer runStoreMu.Unlock()
	return runStore
}

// RunStoreStats reports the attached store's counters; ok is false
// when no store is attached.
func RunStoreStats() (st store.Stats, ok bool) {
	s := RunStore()
	if s == nil {
		return store.Stats{}, false
	}
	return s.Stats(), true
}

// RunCacheComputes reports how many cache misses actually simulated
// (as opposed to loading from an attached store). Zero computes over a
// warm store is the restart-resilience acceptance criterion.
func RunCacheComputes() uint64 { return runCache.Computes() }
