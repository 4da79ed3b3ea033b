//go:build go1.24

// The weak package is Go 1.24; go.mod stays at go 1.22 so the
// cmd/fdtbench module, which pins go 1.22, still builds.

package workloads

import (
	"runtime"
	"sync"
	"unsafe"
	"weak"
)

// inputs maps a workload's params struct to a weak reference to the
// read-only input built from it. Every live instance built with the
// same params gets the same backing array; once none holds it, the GC
// frees the array and a cleanup drops the entry.
var inputs struct {
	mu sync.Mutex
	m  map[any]any // params -> sharedInput[T]
}

// sharedInput is a weak reference to a slice's backing array. It
// points at the first element, not at a slice header: a header built
// for the call would be unreachable at once, and its weak pointer
// cleared at the next GC.
type sharedInput[T any] struct {
	first weak.Pointer[T]
	n     int
}

// readOnlyInput returns the input that build makes for key, shared
// with every live instance that asked for the same key. build must
// be deterministic in key, and callers must never write the result:
// mutable state stays per instance. build runs under the lock, so
// concurrent callers wait for one build instead of each holding a
// copy; it must not call readOnlyInput.
func readOnlyInput[T any](key any, build func() []T) []T {
	inputs.mu.Lock()
	defer inputs.mu.Unlock()
	if in, ok := inputs.m[key].(sharedInput[T]); ok {
		if p := in.first.Value(); p != nil {
			return unsafe.Slice(p, in.n)
		}
	}
	v := build()
	if len(v) == 0 {
		return v
	}
	if inputs.m == nil {
		inputs.m = make(map[any]any)
	}
	first := weak.Make(&v[0])
	inputs.m[key] = sharedInput[T]{first, len(v)}
	runtime.AddCleanup(&v[0], func(key any) {
		inputs.mu.Lock()
		defer inputs.mu.Unlock()
		// A newer build may have replaced the entry since.
		if in, ok := inputs.m[key].(sharedInput[T]); ok && in.first == first {
			delete(inputs.m, key)
		}
	}, key)
	return v
}
