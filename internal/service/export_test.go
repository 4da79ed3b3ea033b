package service

import (
	"context"
	"sync"
	"testing"
)

// Subscribe returns a channel that carries the job's full event log,
// then follows it live, and is closed after the terminal event. No
// event is lost, however slowly the channel is read. Call cancel to
// detach before the close.
func (j *Job) Subscribe() (ch <-chan Event, cancel func()) {
	c := make(chan Event)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer close(c)
		for next := 0; ; {
			evs, final, wait := j.tail(next)
			for _, ev := range evs {
				select {
				case c <- ev:
				case <-ctx.Done():
					return
				}
			}
			next += len(evs)
			if final {
				return
			}
			select {
			case <-wait:
			case <-ctx.Done():
				return
			}
		}
	}()
	return c, cancel
}

// dispatchHold holds the dispatchers of the services New builds during
// a test: the first job taken waits until release, and every job taken
// is recorded in order.
type dispatchHold struct {
	mu      sync.Mutex
	taken   []string
	held    chan struct{}
	release func()
}

// holdDispatch installs a dispatchHold for the rest of t.
func holdDispatch(t *testing.T) *dispatchHold {
	h := &dispatchHold{held: make(chan struct{})}
	h.release = sync.OnceFunc(func() { close(h.held) })
	testHookDispatch = func(j *Job) {
		h.mu.Lock()
		h.taken = append(h.taken, j.ID)
		first := len(h.taken) == 1
		h.mu.Unlock()
		if first {
			<-h.held
		}
	}
	t.Cleanup(func() { testHookDispatch = nil })
	return h
}

// order reports the IDs of the jobs taken so far, in the order taken.
func (h *dispatchHold) order() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.taken...)
}
