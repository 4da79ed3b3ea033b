package service

import "context"

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
