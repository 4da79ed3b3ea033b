package core

import (
	"encoding/json"

	"fdt/internal/store"
)

// RunStoreSchema versions the persisted RunResult wire format (JSON of
// RunResult). Bump it whenever RunResult or anything it embeds changes
// shape in a way old payloads must not be decoded into — stale entries
// then read as misses and are recomputed, never misparsed. A changed
// stored value under an existing key needs a bump too: schema 2
// retires hill-climb runs stored with a zero BusBusyCycles, schema 3
// sampled runs of the multi-span synthetic extras, which now execute
// exactly. Open a store for a Runs with store.Open(dir, RunStoreSchema).
const RunStoreSchema = 3

// load reads key's run from st, the disk store behind a Runs; a nil
// st holds nothing. Keys are the content addresses the in-memory cache
// uses, so a CLI report run warms the daemon's store and vice versa.
//
// Runs are persisted as JSON. encoding/json round-trips every
// RunResult field bit-exactly (shortest-float encoding), so a run
// served from the store is byte-identical, when re-marshaled, to the
// run that was stored — the property the daemon's restart-resilience
// test pins. A loaded run carries no training record.
func load(st *store.Store, key string) (runEntry, bool) {
	if st == nil {
		return runEntry{}, false
	}
	blob, ok := st.Get(key)
	if !ok {
		return runEntry{}, false
	}
	var res RunResult
	if err := json.Unmarshal(blob, &res); err != nil {
		// A payload that passed the store's CRC but does not decode
		// means the schema changed without a RunStoreSchema bump;
		// treat as a miss and overwrite.
		return runEntry{}, false
	}
	return runEntry{res: res}, true
}

// save writes e's result to st under key, best effort; a nil st
// drops it.
func save(st *store.Store, key string, e runEntry) {
	if st == nil {
		return
	}
	blob, err := json.Marshal(e.res)
	if err != nil {
		return // unmarshalable results are simply not persisted
	}
	_ = st.Put(key, blob) // best effort: Put counts its own errors
}

// Store returns the disk store backing r, or nil.
func (r *Runs) Store() *store.Store { return r.orDefault().store.Load() }

// OpenRunStore opens (creating if needed) a disk run store at dir and
// attaches it to the package default. It exists for cmd/fdtbench until
// ROADMAP item 2 moves that call to a value fdtbench owns.
func OpenRunStore(dir string) (*store.Store, error) {
	st, err := store.Open(dir, RunStoreSchema)
	if err != nil {
		return nil, err
	}
	defaultRuns.store.Store(st)
	return st, nil
}

// DetachRunStore disconnects the package default from its store. It
// exists for cmd/fdtbench until ROADMAP item 2 moves that call.
func DetachRunStore() { defaultRuns.store.Store(nil) }
