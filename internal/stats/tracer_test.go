package stats

import (
	"testing"

	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// TestTracerCapBoundsMemory: with a cap set, an arbitrarily long run
// retains at most cap samples per series, still spanning the whole run.
func TestTracerCapBoundsMemory(t *testing.T) {
	sch := sim.New()
	horizon := 100 * units.Millisecond
	tr := NewTracer(sch, units.Microsecond, horizon) // 100k ticks uncapped
	tr.SetCap(64)
	a := tr.Add("a", func() float64 { return 1 })
	b := tr.Add("b", func() float64 { return 2 })
	tr.Start()
	sch.Run()

	for name, s := range map[string]*Series{"a": a, "b": b} {
		if len(s.T) > 64 {
			t.Fatalf("series %s retained %d samples, cap 64", name, len(s.T))
		}
		if len(s.T) < 32 {
			t.Fatalf("series %s retained only %d samples (over-decimated)", name, len(s.T))
		}
		if s.T[0] != 0 {
			t.Errorf("series %s lost its first sample: T[0]=%v", name, s.T[0])
		}
		// Coverage: the last retained sample is within one (doubled)
		// interval of the horizon.
		if last := s.T[len(s.T)-1]; last < horizon/2 {
			t.Errorf("series %s stops at %v, does not cover the run to %v", name, last, horizon)
		}
	}
	if tr.Decimations() == 0 {
		t.Fatal("cap never triggered on a 100k-tick run")
	}
	// Decimation keeps even indices, so retained timestamps stay strictly
	// increasing and evenly spaced at interval<<decims.
	for i := 1; i < len(a.T); i++ {
		if a.T[i] <= a.T[i-1] {
			t.Fatalf("timestamps not increasing after decimation: T[%d]=%v T[%d]=%v", i-1, a.T[i-1], i, a.T[i])
		}
	}
}

// TestTracerNoCapUnchanged: without SetCap the tracer keeps every sample
// (the default-horizon figure runs must stay byte-identical).
func TestTracerNoCapUnchanged(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, 10*units.Microsecond, units.Millisecond)
	s := tr.Add("x", func() float64 { return 1 })
	tr.Start()
	sch.Run()
	if len(s.T) != 101 {
		t.Fatalf("samples = %d, want 101", len(s.T))
	}
	if tr.Decimations() != 0 {
		t.Fatalf("decimations = %d without a cap", tr.Decimations())
	}
}

// TestTracerCapAboveRunLengthIsExact: a cap larger than the sample count
// changes nothing — the property the fig runners rely on to keep their
// golden outputs identical.
func TestTracerCapAboveRunLengthIsExact(t *testing.T) {
	run := func(cap int) *Series {
		sch := sim.New()
		tr := NewTracer(sch, 10*units.Microsecond, units.Millisecond)
		if cap > 0 {
			tr.SetCap(cap)
		}
		x := 0.0
		s := tr.Add("x", func() float64 { x += 1.5; return x })
		tr.Start()
		sch.Run()
		return s
	}
	want, got := run(0), run(1024)
	if len(want.T) != len(got.T) {
		t.Fatalf("capped (above length) run has %d samples, uncapped %d", len(got.T), len(want.T))
	}
	for i := range want.T {
		if want.T[i] != got.T[i] || want.V[i] != got.V[i] {
			t.Fatalf("sample %d differs: (%v,%v) vs (%v,%v)", i, want.T[i], want.V[i], got.T[i], got.V[i])
		}
	}
}

// TestTracerPresizedTicksAllocateNothing: Start reserves each series for
// the whole run, so sampling ticks never grow a slice, and the presized
// series hold exactly the samples the append-grown ones did.
func TestTracerPresizedTicksAllocateNothing(t *testing.T) {
	const interval = 10 * units.Microsecond
	sch := sim.New()
	tr := NewTracer(sch, interval, 10*units.Millisecond) // 1001 ticks
	x := 0.0
	a := tr.Add("a", func() float64 { x += 0.5; return x })
	b := tr.Add("b", func() float64 { return 2 })
	c := tr.Add("c", func() float64 { return -x })
	tr.Start()
	// Each measured call runs 50 ticks; growing three series' T and V
	// by append would reallocate at every power of two along the way.
	allocs := testing.AllocsPerRun(10, func() { sch.RunUntil(sch.Now() + 50*interval) })
	if allocs != 0 {
		t.Errorf("sampling ticks allocate %.1f/op, want 0", allocs)
	}
	sch.Run()
	for name, s := range map[string]*Series{"a": a, "b": b, "c": c} {
		if len(s.T) != 1001 || len(s.V) != 1001 {
			t.Fatalf("series %s has %d/%d samples, want 1001", name, len(s.T), len(s.V))
		}
	}
	for i := range a.T {
		want := 0.5 * float64(i+1)
		if a.T[i] != units.Time(i)*interval || a.V[i] != want || b.V[i] != 2 || c.V[i] != -want {
			t.Fatalf("sample %d = (%v, %v, %v, %v), want (%v, %v, 2, %v)",
				i, a.T[i], a.V[i], b.V[i], c.V[i], units.Time(i)*interval, want, -want)
		}
	}
}

// TestTracerPresizeRespectsCap: with a cap set, Start reserves only the
// cap, and decimation (which works in place) never grows past it.
func TestTracerPresizeRespectsCap(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, units.Microsecond, 100*units.Millisecond)
	tr.SetCap(64)
	s := tr.Add("x", func() float64 { return 1 })
	tr.Start()
	if cap(s.T) != 64 || cap(s.V) != 64 {
		t.Fatalf("presized capacity %d/%d, want the cap 64", cap(s.T), cap(s.V))
	}
	sch.Run()
	if cap(s.T) != 64 || cap(s.V) != 64 {
		t.Errorf("capacity grew to %d/%d during a capped run", cap(s.T), cap(s.V))
	}
}
