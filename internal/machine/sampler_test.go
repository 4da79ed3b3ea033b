package machine

import (
	"reflect"
	"strings"
	"testing"

	"fdt/internal/counters"
	"fdt/internal/sim"
)

func TestSamplerCollectsSamples(t *testing.T) {
	m := MustNew(DefaultConfig())
	log := m.StartSampler(1000)
	m.Eng.Spawn("work", func(p *sim.Proc) {
		p.Advance(10500)
	})
	m.Eng.Run()
	if len(log.Samples) < 10 {
		t.Fatalf("got %d samples over 10500 cycles at interval 1000", len(log.Samples))
	}
	for i := 1; i < len(log.Samples); i++ {
		if log.Samples[i].Time <= log.Samples[i-1].Time {
			t.Fatal("sample times not increasing")
		}
	}
}

func TestSamplerStopsWhenWorkEnds(t *testing.T) {
	m := MustNew(DefaultConfig())
	log := m.StartSampler(100)
	m.Eng.Spawn("work", func(p *sim.Proc) { p.Advance(250) })
	m.Eng.Run() // must terminate (sampler exits once alone)
	if len(log.Samples) == 0 {
		t.Fatal("no samples")
	}
	last := log.Samples[len(log.Samples)-1].Time
	if last > 1000 {
		t.Errorf("sampler ran to %d cycles after 250-cycle workload", last)
	}
}

func TestSamplerEndsAtTheRunsEnd(t *testing.T) {
	// The program holds two cores and ends at cycle 2,500, where the
	// second goes idle, after 300 bus-busy cycles in its last 500. The
	// final sample is taken at 2,500, not at the sampler's next tick:
	// its bus utilization is over those 500 cycles, and it counts both
	// cores.
	m := MustNew(DefaultConfig())
	log := m.StartSampler(1000)
	m.OccupyContext(0, 0)
	m.OccupyContext(1, 0)
	m.Eng.Spawn("master", func(p *sim.Proc) {
		p.Advance(2200)
		m.Ctrs.Counter(counters.BusBusyCycles).Add(300)
		p.Advance(300)
		m.ReleaseContext(1, p.Now())
		m.ProgramDone(p.Now())
	})
	m.Eng.Run()
	m.ReleaseContext(0, 2500)
	want := []Sample{
		{Time: 1000, ActiveCores: 2},
		{Time: 2000, ActiveCores: 2},
		{Time: 2500, BusUtil: 0.6, ActiveCores: 2},
	}
	if !reflect.DeepEqual(log.Samples, want) {
		t.Errorf("samples %+v, want %+v", log.Samples, want)
	}
}

func TestSamplerDefaultInterval(t *testing.T) {
	m := MustNew(DefaultConfig())
	log := m.StartSampler(0)
	if log.Interval == 0 {
		t.Fatal("zero interval not defaulted")
	}
	m.Eng.Spawn("work", func(p *sim.Proc) { p.Advance(1) })
	m.Eng.Run()
}

func TestActiveCores(t *testing.T) {
	m := MustNew(DefaultConfig())
	if m.ActiveCores() != 0 {
		t.Fatal("fresh machine has active cores")
	}
	m.OccupyContext(0, 0)
	m.OccupyContext(5, 0)
	if m.ActiveCores() != 2 {
		t.Errorf("ActiveCores = %d, want 2", m.ActiveCores())
	}
	m.ReleaseContext(0, 1)
	m.ReleaseContext(5, 1)
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1}, 3, 1)
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline %q has wrong width", s)
	}
	runes := []rune(s)
	if runes[0] >= runes[2] {
		t.Errorf("sparkline not increasing: %q", s)
	}
	if Sparkline(nil, 10, 1) != "" {
		t.Error("empty input should render empty")
	}
	// Clamp: values above max must not panic.
	_ = Sparkline([]float64{5}, 1, 1)
}

func TestSampleLogString(t *testing.T) {
	l := &SampleLog{Interval: 10, Cores: 4, Samples: []Sample{
		{Time: 10, BusUtil: 0.5, ActiveCores: 2},
		{Time: 20, BusUtil: 1.0, ActiveCores: 4},
	}}
	s := l.String()
	if !strings.Contains(s, "bus util") || !strings.Contains(s, "act.cores") {
		t.Errorf("render incomplete: %q", s)
	}
	empty := &SampleLog{}
	if empty.String() != "(no samples)" {
		t.Error("empty log renders wrong")
	}
}
