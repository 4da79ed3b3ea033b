package counters

import (
	"testing"
	"testing/quick"
)

func TestCounterAddAndRead(t *testing.T) {
	var c Counter
	if c.Read() != 0 {
		t.Fatal("new counter not zero")
	}
	c.Add(5)
	c.Inc()
	if got := c.Read(); got != 6 {
		t.Errorf("Read = %d, want 6", got)
	}
}

func TestSampleDelta(t *testing.T) {
	var c Counter
	c.Add(100)
	s := c.Sample()
	c.Add(42)
	if d := c.DeltaSince(s); d != 42 {
		t.Errorf("DeltaSince = %d, want 42", d)
	}
}

func TestSetCreatesOnFirstUse(t *testing.T) {
	s := NewSet()
	a := s.Counter("x")
	b := s.Counter("x")
	if a != b {
		t.Error("Counter(\"x\") returned distinct counters")
	}
	a.Add(3)
	if s.Counter("x").Read() != 3 {
		t.Error("counter state not shared")
	}
}

func TestSetNamesSorted(t *testing.T) {
	s := NewSet()
	s.Counter("zeta")
	s.Counter("alpha")
	s.Counter("mid")
	names := s.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Counter("b").Add(2)
	s.Counter("a").Add(1)
	if got, want := s.String(), "a=1 b=2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestPropertyDeltaMatchesSumOfAdds(t *testing.T) {
	f := func(adds []uint16) bool {
		var c Counter
		c.Add(7)
		s := c.Sample()
		var want uint64
		for _, a := range adds {
			c.Add(uint64(a))
			want += uint64(a)
		}
		return c.DeltaSince(s) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
