// Package bench is the performance-regression harness: it times a fixed
// set of reduced-scale experiment runs (the same scenarios the paper's
// figures use), measures allocations and event throughput, runs a
// serial-vs-parallel sweep to record the multi-core speedup, and emits
// one JSON report per revision (BENCH_<rev>.json). CI runs it on every
// push so the perf trajectory of the simulator is tracked over time;
// scripts/bench.sh is the local entry point.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/exp/sweep"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// Config tunes the harness. The zero value is the reduced CI scale.
type Config struct {
	// Rev labels the report (git short hash; "dev" when unknown).
	Rev string
	// Iters is the measurement iteration count per case (default 3).
	Iters int
	// SweepSeeds is the seed count of the speedup sweep (default 8).
	SweepSeeds int
	// Parallel is the sweep worker count (default GOMAXPROCS).
	Parallel int
	// Horizon scales the per-run simulated time (default 5 ms for the
	// observation cases, 3 ms for the table3 sweep).
	Horizon units.Time
}

// Case is one timed scenario.
type Case struct {
	Name         string             `json:"name"`
	NsPerOp      float64            `json:"ns_per_op"`
	AllocsPerOp  float64            `json:"allocs_per_op"`
	BytesPerOp   float64            `json:"bytes_per_op"`
	EventsPerSec float64            `json:"events_per_sec,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

// SweepStats records the serial-vs-parallel wall-clock comparison of an
// N-seed table3 sweep — the headline multi-core number.
type SweepStats struct {
	Seeds      int     `json:"seeds"`
	Parallel   int     `json:"parallel"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// Report is the full benchmark output of one revision.
type Report struct {
	Rev        string     `json:"rev"`
	GoVersion  string     `json:"go_version"`
	NumCPU     int        `json:"num_cpu"`
	GoMaxProcs int        `json:"gomaxprocs"`
	UnixMs     int64      `json:"unix_ms"`
	Cases      []Case     `json:"cases"`
	Sweep      SweepStats `json:"sweep"`
}

// WriteJSON serializes the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func (c *Config) fill() {
	if c.Rev == "" {
		c.Rev = "dev"
	}
	if c.Iters <= 0 {
		c.Iters = 3
	}
	if c.SweepSeeds <= 0 {
		c.SweepSeeds = 8
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.Horizon <= 0 {
		c.Horizon = 5 * units.Millisecond
	}
}

// measure times fn over iters runs. fn reports the simulator events it
// processed (zero when unknown) and a headline metric map sampled from
// the last iteration.
func measure(name string, iters int, fn func() (events uint64, metrics map[string]float64)) Case {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var events uint64
	var metrics map[string]float64
	for i := 0; i < iters; i++ {
		ev, m := fn()
		events += ev
		metrics = m
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(iters)
	c := Case{
		Name:        name,
		NsPerOp:     float64(wall.Nanoseconds()) / n,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		Metrics:     metrics,
	}
	if sec := wall.Seconds(); sec > 0 && events > 0 {
		c.EventsPerSec = float64(events) / sec
	}
	return c
}

// observeCase times one §3.1 observation run per iteration.
func observeCase(name string, kind exp.FabricKind, det exp.DetectorKind, horizon units.Time, iters int) Case {
	return measure(name, iters, func() (uint64, map[string]float64) {
		cfg := exp.DefaultObserveConfig(kind, det, false)
		cfg.Horizon = horizon
		cfg.BurstRounds = 10
		cfg.Seed = 42
		reg := obs.NewRegistry()
		cfg.Obs = obs.Config{Metrics: reg}
		res := exp.Observe(cfg)
		return uint64(reg.Counter("sched_events").Value()), map[string]float64{
			"p2_max_queue_kb": res.Scalars["p2_max_queue_kb"],
			"f0_ce":           res.Scalars["f0_ce"],
		}
	})
}

// observeTelemetryCase times the same fig3 run with the full streaming
// telemetry stack attached (event fold, histograms, windowed queue
// sampler), so every report records the recorder-enabled overhead next
// to the recorder-disabled baseline case.
func observeTelemetryCase(name string, kind exp.FabricKind, horizon units.Time, iters int) Case {
	return measure(name, iters, func() (uint64, map[string]float64) {
		cfg := exp.DefaultObserveConfig(kind, exp.DetBaseline, false)
		cfg.Horizon = horizon
		cfg.BurstRounds = 10
		cfg.Seed = 42
		reg := obs.NewRegistry()
		tel := obs.NewTelemetry(nil)
		cfg.Obs = obs.Config{Metrics: reg, Telemetry: tel}
		res := exp.Observe(cfg)
		return uint64(reg.Counter("sched_events").Value()), map[string]float64{
			"p2_max_queue_kb": res.Scalars["p2_max_queue_kb"],
			"fct_hist_n":      float64(tel.FCT.Count()),
			"queue_hist_n":    float64(tel.QueueDepth.Count()),
		}
	})
}

// schedChurn builds one iteration of the scheduler churn loop: push,
// pop, cancel and reschedule against a scheduler preloaded with depth
// pending events whose fire times spread over span time units. The
// constructor selects the queue under test (hybrid or heap-only).
func schedChurn(depth int, span int64, mk func() *sim.Scheduler) func() (uint64, map[string]float64) {
	const churn = 100000
	return func() (uint64, map[string]float64) {
		r := rng.New(11)
		s := mk()
		ids := make([]sim.EventID, depth)
		// Every event re-pushes itself when it fires, carrying its index
		// as the handler argument, so the queue holds exactly depth
		// events throughout and pops are matched by pushes.
		var refill sim.Handler
		refill = s.Register(func(i uint64) {
			ids[i] = s.AtH(s.Now()+1+units.Time(r.Intn(int(span))), refill, i)
		})
		for i := range ids {
			ids[i] = s.AtH(units.Time(1+r.Intn(int(span))), refill, uint64(i))
		}
		ops := uint64(depth)
		gap := units.Time(span / int64(depth))
		for k := 0; k < churn; k++ {
			switch k & 3 {
			case 0: // reschedule a live handle in place
				j := r.Intn(depth)
				s.Reschedule(ids[j], s.Now()+1+units.Time(r.Intn(int(span))))
				ops++
			case 1: // cancel + fresh push
				j := r.Intn(depth)
				s.Cancel(ids[j])
				ids[j] = s.AtH(s.Now()+1+units.Time(r.Intn(int(span))), refill, uint64(j))
				ops += 2
			default: // advance: pops ~1 event, which re-pushes itself
				s.RunUntil(s.Now() + gap)
			}
		}
		ops += 2 * s.Processed() // each pop came with a matching refill push
		s.Stop()
		return ops, map[string]float64{"depth": float64(depth), "processed": float64(s.Processed())}
	}
}

// schedCase measures the event queue in isolation at a fixed depth, with
// fire times spread over 2^30 time units so most pending events sit
// beyond the wheel horizon (the far-timer regime). EventsPerSec counts
// queue operations, so the BENCH trajectory tracks the raw queue cost
// independently of the fabric and host layers riding on it.
func schedCase(name string, depth, iters int) Case {
	return measure(name, iters, schedChurn(depth, 1<<30, sim.New))
}

// schedWheelCase is the same churn loop with fire times confined to a
// 2^28-unit spread: pending events live in the level-0 and level-1 wheel
// bands rather than the overflow heap, so these cases track the O(1)
// slot-insert/cancel path and the bucket cascade cost.
func schedWheelCase(name string, depth, iters int) Case {
	return measure(name, iters, schedChurn(depth, 1<<28, sim.New))
}

// crossoverCase runs the identical churn trace on the hybrid and on the
// heap-only configuration and reports both, so the BENCH trajectory
// records where the wheel starts paying for itself as depth grows. The
// headline numbers (ns/op, events/sec) are the hybrid's; the heap-only
// side and the speedup ratio ride in the metrics map.
func crossoverCase(name string, depth, iters int) Case {
	hy := measure(name, iters, schedChurn(depth, 1<<30, sim.New))
	ho := measure(name, iters, schedChurn(depth, 1<<30, sim.NewHeapOnly))
	hy.Metrics = map[string]float64{
		"depth":                   float64(depth),
		"heaponly_ns_per_op":      ho.NsPerOp,
		"heaponly_events_per_sec": ho.EventsPerSec,
		"wheel_speedup":           ho.NsPerOp / hy.NsPerOp,
	}
	return hy
}

// routeBuildCase times route-table construction on a fat-tree: the eager
// reverse-BFS build of every destination column per iteration (the cost
// hyperscale runs avoid), with the lazy structural table's footprint for
// the same topology riding in the metrics map. EventsPerSec counts
// columns built.
func routeBuildCase(name string, k, iters int) Case {
	ft := topo.NewFatTree(k, 40*units.Gbps, 4*units.Microsecond)
	src := routing.FatTreeColumns(ft)
	return measure(name, iters, func() (uint64, map[string]float64) {
		eager := routing.BuildShortestPath(ft.Topology)
		lazy := routing.NewLazy(ft.Topology, src, 64)
		for _, h := range ft.HostList {
			lazy.Choices(ft.HostList[0], h)
		}
		return uint64(eager.NumHosts()), map[string]float64{
			"hosts":         float64(eager.NumHosts()),
			"eager_mb":      float64(eager.LiveBytes()) / (1 << 20),
			"lazy_live_mb":  float64(lazy.LiveBytes()) / (1 << 20),
			"lazy_bfs_runs": float64(lazy.Stats().BFSRuns),
		}
	})
}

// closedGate refuses every transmission — the bench stand-in for a
// permanently paused PFC gate.
type closedGate struct{}

func (closedGate) CanSend(uint8, units.ByteSize) bool      { return false }
func (closedGate) OnSend(uint8, units.ByteSize)            {}
func (closedGate) HandleCtrl(units.Time, fabric.CtrlFrame) {}

// soaScanCase times the struct-of-arrays fabric sweeps — WaitCycles,
// Stranded, QueuedPayload — on a ring frozen into the classic circular
// buffer dependency: every clockwise egress holds a packet destined two
// switches ahead behind a closed gate, so the pause-wait graph is one
// n-cycle and every sweep walks the flat qbytes/blocked arrays end to
// end. EventsPerSec counts sweep passes.
func soaScanCase(name string, nSwitch, iters int) Case {
	ring := topo.NewRing(nSwitch, 40*units.Gbps, 4*units.Microsecond)
	net := fabric.New(sim.New(), ring.Topology, fabric.DefaultConfig())
	routing.BuildShortestPath(ring.Topology).Attach(net, routing.FirstPath())
	for _, p := range net.Ports() {
		p.AttachGate(closedGate{})
	}
	for i := 0; i < nSwitch; i++ {
		pkt := net.NewPacket()
		pkt.Dst = ring.Hosts[(i+2)%nSwitch]
		pkt.Size = units.KB
		pkt.Payload = units.KB
		net.PortToward(ring.Sw[i], ring.Sw[(i+1)%nSwitch]).Enqueue(pkt)
	}
	return measure(name, iters, func() (uint64, map[string]float64) {
		const sweeps = 200
		var cycles, stranded int
		var queued units.ByteSize
		for s := 0; s < sweeps; s++ {
			cycles = len(net.WaitCycles())
			rep := net.Stranded()
			stranded = len(rep.Ports)
			queued = net.QueuedPayload()
		}
		return sweeps, map[string]float64{
			"switches":       float64(nSwitch),
			"wait_cycles":    float64(cycles),
			"stranded_ports": float64(stranded),
			"queued_kb":      float64(queued) / float64(units.KB),
		}
	})
}

// Regression is one guard violation found by Compare.
type Regression struct {
	Case   string  `json:"case"`
	Metric string  `json:"metric"`
	Prev   float64 `json:"prev"`
	Cur    float64 `json:"cur"`
	Ratio  float64 `json:"ratio"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s regressed %.1f%%: %.0f -> %.0f",
		r.Case, r.Metric, (r.Ratio-1)*100, r.Prev, r.Cur)
}

// GuardCases are the end-to-end cases the CI regression guard compares
// across revisions: the fig3 single-congestion-point runs with the
// recorder disabled, plus the telemetry-enabled variant so the streaming
// collector's overhead cannot silently creep. Compare skips cases the
// prior report lacks, so older reports keep guarding what they have.
var GuardCases = []string{
	"observe-cee-baseline", "observe-ib-baseline", "observe-cee-telemetry",
	"route-build-k16", "soa-scan",
}

// Compare checks cur against prev for the guard cases and returns the
// ns/op and allocs/op regressions exceeding tol (0.15 = fail above
// +15%). Cases missing from either report are skipped, so reports from
// older revisions with fewer cases still guard what they have.
func Compare(prev, cur *Report, tol float64) []Regression {
	prevByName := make(map[string]*Case, len(prev.Cases))
	for i := range prev.Cases {
		prevByName[prev.Cases[i].Name] = &prev.Cases[i]
	}
	var regs []Regression
	for _, name := range GuardCases {
		p := prevByName[name]
		if p == nil {
			continue
		}
		for i := range cur.Cases {
			c := &cur.Cases[i]
			if c.Name != name {
				continue
			}
			for _, m := range []struct {
				metric    string
				prev, cur float64
			}{
				{"ns_per_op", p.NsPerOp, c.NsPerOp},
				{"allocs_per_op", p.AllocsPerOp, c.AllocsPerOp},
			} {
				if m.prev <= 0 {
					continue
				}
				if ratio := m.cur / m.prev; ratio > 1+tol {
					regs = append(regs, Regression{
						Case: name, Metric: m.metric,
						Prev: m.prev, Cur: m.cur, Ratio: ratio,
					})
				}
			}
		}
	}
	return regs
}

// Run executes the harness and returns the report.
func Run(cfg Config) *Report {
	cfg.fill()
	r := &Report{
		Rev:        cfg.Rev,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		UnixMs:     time.Now().UnixMilli(),
	}
	r.Cases = append(r.Cases,
		observeCase("observe-cee-baseline", exp.CEE, exp.DetBaseline, cfg.Horizon, cfg.Iters),
		observeCase("observe-cee-tcd", exp.CEE, exp.DetTCD, cfg.Horizon, cfg.Iters),
		observeTelemetryCase("observe-cee-telemetry", exp.CEE, cfg.Horizon, cfg.Iters),
		observeCase("observe-ib-baseline", exp.IB, exp.DetBaseline, cfg.Horizon, cfg.Iters),
		measure("table3", cfg.Iters, func() (uint64, map[string]float64) {
			res, _ := exp.Table3(cfg.Horizon, 42)
			return 0, map[string]float64{"TCD (CEE)": res.Scalars["TCD (CEE)"]}
		}),
		schedCase("sched-depth-1k", 1<<10, cfg.Iters),
		schedCase("sched-depth-16k", 1<<14, cfg.Iters),
		schedCase("sched-depth-256k", 1<<18, cfg.Iters),
		schedWheelCase("sched-wheel-1k", 1<<10, cfg.Iters),
		schedWheelCase("sched-wheel-16k", 1<<14, cfg.Iters),
		schedWheelCase("sched-wheel-256k", 1<<18, cfg.Iters),
		crossoverCase("sched-crossover-1k", 1<<10, cfg.Iters),
		crossoverCase("sched-crossover-16k", 1<<14, cfg.Iters),
		crossoverCase("sched-crossover-256k", 1<<18, cfg.Iters),
		routeBuildCase("route-build-k16", 16, cfg.Iters),
		soaScanCase("soa-scan", 256, cfg.Iters),
	)
	r.Sweep = speedupSweep(cfg)
	return r
}

// speedupSweep times the same multi-seed table3 grid with one worker and
// with cfg.Parallel workers. Per-run determinism makes the two runs do
// identical work, so the wall-clock ratio is a clean speedup measure.
func speedupSweep(cfg Config) SweepStats {
	horizon := cfg.Horizon * 3 / 5 // lighter than the timed cases
	fn := func(s sweep.Spec) []*exp.Result {
		res, _ := exp.Table3(horizon, s.Seed)
		return []*exp.Result{res}
	}
	specs := sweep.Grid{Exps: []string{"table3"}, Seeds: sweep.Seq(1, cfg.SweepSeeds)}.Specs()
	time4 := func(workers int) time.Duration {
		start := time.Now()
		sweep.Run(context.Background(), specs, fn, sweep.Options{Parallel: workers})
		return time.Since(start)
	}
	serial := time4(1)
	parallel := time4(cfg.Parallel)
	st := SweepStats{
		Seeds:      cfg.SweepSeeds,
		Parallel:   cfg.Parallel,
		SerialMs:   serial.Seconds() * 1000,
		ParallelMs: parallel.Seconds() * 1000,
	}
	if parallel > 0 {
		st.Speedup = float64(serial) / float64(parallel)
	}
	return st
}
