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

// attach backs r with a disk store, or detaches it when st is nil:
// cache misses consult the store before simulating, and every freshly
// simulated run is written through. Keys are the same content
// addresses the in-memory cache uses, so a CLI report run warms the
// daemon's store and vice versa.
//
// Values are persisted as JSON. encoding/json round-trips every
// RunResult field bit-exactly (shortest-float encoding), so a run
// served from the store is byte-identical, when re-marshaled, to the
// run that was stored — the property the daemon's restart-resilience
// test pins.
func (r *Runs) attach(st *store.Store) {
	r.store.Store(st)
	if st == nil {
		r.cache.SetBacking(nil, nil)
		return
	}
	r.cache.SetBacking(
		func(key string) (runEntry, bool) {
			blob, ok := st.Get(key)
			if !ok {
				return runEntry{}, false
			}
			var res RunResult
			if err := json.Unmarshal(blob, &res); err != nil {
				// A payload that passed the store's CRC but does not
				// decode means the schema changed without a
				// RunStoreSchema bump; treat as a miss and overwrite.
				return runEntry{}, false
			}
			return runEntry{res: res}, true
		},
		func(key string, e runEntry) {
			blob, err := json.Marshal(e.res)
			if err != nil {
				return // unmarshalable results are simply not persisted
			}
			st.Put(key, blob) // best effort; Put counts its own errors
		},
	)
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
	defaultRuns.attach(st)
	return st, nil
}

// DetachRunStore disconnects the package default from its store. It
// exists for cmd/fdtbench until ROADMAP item 2 moves that call.
func DetachRunStore() { defaultRuns.attach(nil) }
