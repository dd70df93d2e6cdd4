package main

import (
	"math"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/tcdnet/tcd/internal/sim.(*Scheduler).RunUntil": "github.com/tcdnet/tcd/internal/sim",
		"github.com/tcdnet/tcd/internal/exp/sweep.Run.func1":       "github.com/tcdnet/tcd/internal/exp/sweep",
		"runtime.mallocgc":                                              "runtime",
		"net/http.(*conn).serve":                                        "net/http",
		"encoding/json.(*encodeState).marshal":                          "encoding/json",
		"slices.SortFunc[go.shape.[]*github.com/x/y.T,go.shape.*uint8]": "slices",
		"main.run": "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"github.com/tcdnet/tcd/internal/sim.(*Scheduler).pop", "github.com/tcdnet/tcd/internal/exp.Observe"}, "sim"},
		{[]string{"github.com/tcdnet/tcd/internal/exp/sweep.Run"}, "exp"},
		{[]string{"github.com/tcdnet/tcd/internal/serve/loadgen.Run"}, "serve"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "github.com/tcdnet/tcd/internal/fabric.New"}, "alloc"},
		// An assist the allocator is charged for is GC work.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "gc"},
		{[]string{"runtime.(*mheap).freeSpan", "runtime.(*sweepLocked).sweep", "runtime.bgsweep"}, "gc"},
		{[]string{"runtime.memmove", "github.com/tcdnet/tcd/internal/fabric.(*Port).enqueue"}, "runtime"},
		{[]string{"net/http.(*conn).serve"}, "nethttp"},
		{[]string{"encoding/json.(*decodeState).object"}, "json"},
		{[]string{"internal/poll.(*FD).Write"}, "syscall"},
		{[]string{"crypto/sha256.block"}, "std"},
		{[]string{"main.timedWindow"}, "bench"},
		{nil, "other"},
	} {
		if got := stackLayer(tc.stack); got != tc.want {
			t.Errorf("stackLayer(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestFoldSharesLeavesOutBenchmarkWork(t *testing.T) {
	f := foldShares([]profileStack{
		{funcs: []string{"github.com/tcdnet/tcd/internal/sim.X"}, samples: 3, nanos: 30},
		{funcs: []string{"github.com/tcdnet/tcd/internal/fabric.Y"}, samples: 1, nanos: 10},
		{funcs: []string{"github.com/tcdnet/tcd/internal/sim.Z"}, samples: 2, nanos: 20},
		{funcs: []string{"encoding/json.Marshal"}, samples: 4, nanos: 40, bench: true},
	})
	want := map[string]float64{"sim": 50.0 / 60, "fabric": 10.0 / 60}
	if len(f.shares) != len(want) {
		t.Errorf("shares %v, want %v", f.shares, want)
	}
	for l, w := range want {
		if math.Abs(f.shares[l]-w) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, f.shares[l], w)
		}
	}
	if f.programSamples != 6 || f.allSamples != 10 || math.Abs(f.benchShare-0.4) > 1e-12 {
		t.Errorf("program samples %d, all %d, bench share %v; want 6, 10, 0.4", f.programSamples, f.allSamples, f.benchShare)
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestCPUProfileRoundTrip records a real profile and checks that the
// decoder finds this test's own frames and the benchmark label.
func TestCPUProfileRoundTrip(t *testing.T) {
	stacks, err := cpuProfile(func() {
		spin(200 * time.Millisecond)
		asBench(func() { spin(200 * time.Millisecond) })
	})
	if err != nil {
		t.Fatal(err)
	}
	var plain, bench int64
	for _, s := range stacks {
		for _, fn := range s.funcs {
			if fn == "github.com/tcdnet/tcd/tcdbench.spin" || fn == "main.spin" {
				if s.bench {
					bench += s.samples
				} else {
					plain += s.samples
				}
				break
			}
		}
	}
	// 100 Hz sampling: about 20 samples each; demand a few.
	if plain < 3 || bench < 3 {
		t.Fatalf("found %d unlabelled and %d labelled samples in spin; want several of each", plain, bench)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}
