package machine

import (
	"testing"
)

func TestDefaultConfigBuilds(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores() != 32 {
		t.Errorf("cores = %d, want 32 (Table 1)", m.Cores())
	}
}

func TestWithCores(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(16))
	if m.Cores() != 16 {
		t.Errorf("cores = %d, want 16", m.Cores())
	}
}

func TestWithBandwidth(t *testing.T) {
	cfg := DefaultConfig().WithBandwidth(2)
	if cfg.Mem.BusCyclesPerLine != 16 {
		t.Errorf("cycles/line = %d, want 16 at 2x bandwidth", cfg.Mem.BusCyclesPerLine)
	}
}

func TestBadConfigRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IssueWidth = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero issue width accepted")
	}
	cfg = DefaultConfig()
	cfg.Mem.L3Banks = 5
	if _, err := New(cfg); err == nil {
		t.Error("invalid memory config accepted")
	}
	// Validate answers the same question without building anything.
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if err := DefaultConfig().WithCores(4).Validate(); err == nil {
		t.Error("4 cores over 8 L3 banks accepted")
	}
}

func TestContextOccupancyGuard(t *testing.T) {
	m := MustNew(DefaultConfig())
	m.OccupyContext(3, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double occupancy did not panic")
			}
		}()
		m.OccupyContext(3, 0)
	}()
	m.ReleaseContext(3, 10)
	m.OccupyContext(3, 20) // re-occupancy after release is fine
	m.ReleaseContext(3, 30)
	defer func() {
		if recover() == nil {
			t.Error("release of idle context did not panic")
		}
	}()
	m.ReleaseContext(3, 40)
}

func TestOccupancyDrivesPowerMeter(t *testing.T) {
	m := MustNew(DefaultConfig())
	m.OccupyContext(2, 100)
	m.ReleaseContext(2, 350)
	if got := m.Power.ActiveCoreCycles(); got != 250 {
		t.Errorf("active core cycles = %d, want 250", got)
	}
}

func TestSMTContextsShareCores(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8).WithSMT(2))
	if m.Contexts() != 16 {
		t.Fatalf("contexts = %d, want 16", m.Contexts())
	}
	// Spread-first placement: contexts 0..7 on distinct cores, 8..15
	// are the second context of each core.
	for ctx := 0; ctx < 16; ctx++ {
		if got, want := m.CoreOf(ctx), ctx%8; got != want {
			t.Errorf("CoreOf(%d) = %d, want %d", ctx, got, want)
		}
	}
	m.OccupyContext(0, 0)
	m.OccupyContext(8, 0) // second context of core 0
	if got := m.CoreLoad(0); got != 2 {
		t.Errorf("core 0 load = %d, want 2", got)
	}
	if got := m.ActiveCores(); got != 1 {
		t.Errorf("active cores = %d, want 1 (one core, two contexts)", got)
	}
	// Power accrues per core: 2 contexts on one core for 100 cycles
	// is 100 core-cycles, not 200.
	m.ReleaseContext(0, 100)
	m.ReleaseContext(8, 100)
	if got := m.Power.ActiveCoreCycles(); got != 100 {
		t.Errorf("active core cycles = %d, want 100", got)
	}
}

func TestSMTConfigValidated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SMTContexts = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero SMT contexts accepted")
	}
	cfg.SMTContexts = 9
	if _, err := New(cfg); err == nil {
		t.Error("9 SMT contexts accepted")
	}
}

func TestBusUtilization(t *testing.T) {
	if got := BusUtilization(50, 100); got != 0.5 {
		t.Errorf("util = %v, want 0.5", got)
	}
	if got := BusUtilization(0, 0); got != 0 {
		t.Errorf("util with zero window = %v, want 0", got)
	}
	if got := BusUtilization(150, 100); got != 1 {
		t.Errorf("util clamps to 1, got %v", got)
	}
}

func TestAllocDelegates(t *testing.T) {
	m := MustNew(DefaultConfig())
	a := m.Alloc(100)
	b := m.Alloc(100)
	if b <= a {
		t.Errorf("allocations not increasing: %d then %d", a, b)
	}
}
