package machine

import (
	"fmt"
	"strings"

	"fdt/internal/counters"
	"fdt/internal/sim"
)

// Sample is one periodic snapshot of machine-level gauges.
type Sample struct {
	// Time is the cycle the interval ended at: interval cycles after
	// the previous sample, or the run's end for the final sample.
	Time uint64
	// BusUtil is the data-bus utilization within the interval.
	BusUtil float64
	// ActiveCores is the number of occupied cores at sample time; the
	// final sample counts the cores held up to the run's end.
	ActiveCores int
}

// SampleLog collects periodic samples over a run — the raw material
// for fdtsim -sparkline.
type SampleLog struct {
	Interval uint64
	// Cores is the machine's core count (the active-core axis).
	Cores   int
	Samples []Sample
}

// StartSampler arms a sampling process that snapshots the machine
// every interval cycles until every other process has finished. Call
// it before the run starts; read the log after. Its last tick may
// move the clock past the program's end, so a run's end is its last
// master's completion (thread.RunTeams), never the engine's clock: the
// final sample is taken at that end instead, over the part of the
// interval the run lasted, and counts the cores held up to the end.
func (m *Machine) StartSampler(interval uint64) *SampleLog {
	if interval == 0 {
		interval = 10000
	}
	log := &SampleLog{Interval: interval, Cores: m.Cores()}
	busCtr := m.Ctrs.Counter(counters.BusBusyCycles)
	m.Eng.Spawn("sampler", func(p *sim.Proc) {
		prev, from := busCtr.Sample(), p.Now()
		for {
			p.Advance(interval)
			// The program is done once the sampler is the only live
			// process left.
			done := m.Eng.Live() <= 1
			at, cores := p.Now(), m.ActiveCores()
			if done {
				at, cores = m.end, m.coresHeldTo(m.end)
			}
			if at > from {
				log.Samples = append(log.Samples, Sample{
					Time:        at,
					BusUtil:     BusUtilization(busCtr.DeltaSince(prev), at-from),
					ActiveCores: cores,
				})
			}
			if done {
				return
			}
			prev, from = busCtr.Sample(), at
		}
	})
	return log
}

// ActiveCores reports how many cores currently host at least one
// thread.
func (m *Machine) ActiveCores() int {
	n := 0
	for _, load := range m.coreLoad {
		if load > 0 {
			n++
		}
	}
	return n
}

// coresHeldTo reports how many cores were active up to cycle end, the
// last of the run: those still active, and those that went idle at
// end, such as the cores of a team that joins as the run completes.
func (m *Machine) coresHeldTo(end uint64) int {
	n := 0
	for c, load := range m.coreLoad {
		if load > 0 || m.coreFreed[c] == end {
			n++
		}
	}
	return n
}

// Sparkline renders a value series as a one-line unicode bar chart,
// downsampled to width columns.
func Sparkline(vals []float64, width int, max float64) string {
	if len(vals) == 0 || width <= 0 || max <= 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for col := 0; col < width; col++ {
		lo := col * len(vals) / width
		hi := (col + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(vals) {
			hi = len(vals)
		}
		sum := 0.0
		for _, v := range vals[lo:hi] {
			sum += v
		}
		avg := sum / float64(hi-lo)
		idx := int(avg / max * float64(len(bars)))
		if idx >= len(bars) {
			idx = len(bars) - 1
		}
		if idx < 0 {
			idx = 0
		}
		b.WriteRune(bars[idx])
	}
	return b.String()
}

// BusUtils extracts the utilization series.
func (l *SampleLog) BusUtils() []float64 {
	out := make([]float64, len(l.Samples))
	for i, s := range l.Samples {
		out[i] = s.BusUtil
	}
	return out
}

// ActiveCoreSeries extracts the active-core series.
func (l *SampleLog) ActiveCoreSeries() []float64 {
	out := make([]float64, len(l.Samples))
	for i, s := range l.Samples {
		out[i] = float64(s.ActiveCores)
	}
	return out
}

// String renders the log as two labelled sparklines.
func (l *SampleLog) String() string {
	if len(l.Samples) == 0 {
		return "(no samples)"
	}
	width := len(l.Samples)
	if width > 72 {
		width = 72
	}
	return fmt.Sprintf("bus util   %s\nact.cores  %s",
		Sparkline(l.BusUtils(), width, 1.0),
		Sparkline(l.ActiveCoreSeries(), width, float64(l.Cores)))
}
