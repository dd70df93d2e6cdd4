package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// simCase is one (configuration, seed) the unit or fattree workload
// cycles through.
type simCase struct {
	name string
	// run performs one simulation; the timed call.
	run func(o obs.Config) *exp.Result
	// setup builds the topology and rig run starts from, through the
	// public constructors, without running them: the set-up time.
	setup func()
	// topo builds the topology alone and returns a function that builds
	// a stand-alone route table of it, for the per-layer build times.
	topo func() (routes func())
	// lossless cases must report buffer_violations, and report 0.
	lossless bool
}

// reference is what the untimed, invariant-checked run of a case
// recorded: the digest every timed run must reproduce, and the layer
// counts of one run.
type reference struct {
	digest [32]byte
	counts map[string]float64
}

// layerCounts are the per-run counts a reference run records, named as
// the per-layer metrics report them.
var layerCounts = []string{
	"sim.events", "fabric.tx_packets", "fabric.ctrl_frames", "pfc.pauses",
	"cbfc.updates", "core.ce_marks", "core.ue_marks", "host.flows_done",
	"routing.cols_materialized", "routing.cols_evicted",
}

func unitCases(sc scale, seeds []uint64) []simCase {
	var cases []simCase
	for _, seed := range seeds {
		for _, kind := range []exp.FabricKind{exp.CEE, exp.IB} {
			for _, det := range []exp.DetectorKind{exp.DetBaseline, exp.DetTCD} {
				seed, kind, det := seed, kind, det
				cases = append(cases, simCase{
					name: fmt.Sprintf("%s-%s-s%d", kind, det, seed),
					run: func(o obs.Config) *exp.Result {
						cfg := exp.DefaultObserveConfig(kind, det, false)
						cfg.Seed = seed
						if sc.unitHorizon > 0 {
							cfg.Horizon = sc.unitHorizon
						}
						cfg.Obs = o
						return exp.Observe(cfg)
					},
					// The rig exp.Observe builds before it runs.
					setup: func() {
						arch := exp.DefaultObserveConfig(kind, det, false).Arch
						exp.NewFig2Rig(exp.Fig2Opts{Kind: kind, Det: det, Seed: seed, Arch: arch, Record: true})
					},
					topo: func() func() {
						f2 := topo.NewFig2(topo.DefaultFig2Config())
						return func() { routing.BuildShortestPath(f2.Topology) }
					},
				})
			}
		}
	}
	return cases
}

// fatTreeConfigs are the Fig-16/17(b) pairings the fattree workload
// cycles: CEE Hadoop with stock and ternary DCQCN, and IB MPI/IO with
// IB CC.
var fatTreeConfigs = []struct {
	kind exp.FabricKind
	det  exp.DetectorKind
	cc   exp.CCKind
	wl   string
}{
	{exp.CEE, exp.DetBaseline, exp.CCDCQCN, "hadoop"},
	{exp.CEE, exp.DetTCD, exp.CCDCQCNTCD, "hadoop"},
	{exp.IB, exp.DetBaseline, exp.CCIBCC, "mpiio"},
}

func fatTreeCases(sc scale, seeds []uint64) []simCase {
	var cases []simCase
	for _, seed := range seeds {
		for _, c := range fatTreeConfigs {
			seed, c := seed, c
			cases = append(cases, simCase{
				name: strings.ReplaceAll(fmt.Sprintf("%s-%s-%s-s%d", c.kind, c.cc, c.wl, seed), "+", "_"),
				run: func(o obs.Config) *exp.Result {
					cfg := exp.DefaultFatTreeConfig(c.kind, c.det, c.cc, c.wl)
					cfg.K, cfg.MaxFlows, cfg.Horizon = sc.ftK, sc.ftFlows, sc.ftHorizon
					cfg.Seed = seed
					cfg.Obs = o
					return exp.FatTree(cfg).Res
				},
				// The set-up exp.FatTree performs before it generates flows;
				// exp has no public constructor for it, so this copy must
				// track exp.FatTree.
				setup: func() {
					sel := routing.ECMP(seed + 9)
					if c.kind == exp.IB {
						sel = routing.DModK()
					}
					hc := host.DefaultConfig()
					hc.AckEveryPacket = c.cc.NeedsAcks()
					ft := topo.NewFatTree(sc.ftK, 40*units.Gbps, 4*units.Microsecond)
					exp.NewRig(exp.RigConfig{
						Topo: ft.Topology, Kind: c.kind, Det: c.det, Seed: seed,
						HostCfg: hc, Selector: sel, RouteCols: routing.FatTreeColumns(ft),
					})
				},
				topo: func() func() {
					ft := topo.NewFatTree(sc.ftK, 40*units.Gbps, 4*units.Microsecond)
					return func() { routing.NewLazy(ft.Topology, routing.FatTreeColumns(ft), 0) }
				},
				lossless: true,
			})
		}
	}
	return cases
}

// safeRun runs one simulation, turning a panic into an error.
func safeRun(c simCase, o obs.Config) (res *exp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", c.name, p)
		}
	}()
	return c.run(o), nil
}

// resultDigest is the SHA-256 of a Result's JSON encoding.
func resultDigest(res *exp.Result, buf *bytes.Buffer) ([32]byte, error) {
	buf.Reset()
	if err := res.WriteJSON(buf); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// checkResult applies the checks every run of a case must pass besides
// its digest: a fat-tree run must stay lossless, and say so.
func checkResult(c simCase, res *exp.Result) error {
	if !c.lossless {
		return nil
	}
	v, ok := res.Scalars["buffer_violations"]
	if !ok {
		return fmt.Errorf("%s: result reports no buffer_violations", c.name)
	}
	if v != 0 {
		return fmt.Errorf("%s: %v buffer violations", c.name, v)
	}
	return nil
}

// checkRun checks a timed run against its case's reference run.
func checkRun(c simCase, res *exp.Result, ref reference, buf *bytes.Buffer) error {
	if err := checkResult(c, res); err != nil {
		return err
	}
	dg, err := resultDigest(res, buf)
	if err == nil && dg != ref.digest {
		err = fmt.Errorf("%s: result digest differs from the invariant-checked reference run", c.name)
	}
	return err
}

// referenceRuns runs every case once with exp.StrictInvariants on and a
// metrics registry attached, and records its digest and layer counts.
func referenceRuns(cases []simCase) ([]reference, error) {
	exp.StrictInvariants = true
	defer func() { exp.StrictInvariants = false }()
	refs := make([]reference, len(cases))
	var buf bytes.Buffer
	for i, c := range cases {
		reg := obs.NewRegistry()
		res, err := safeRun(c, obs.Config{Metrics: reg})
		if err != nil {
			return nil, err
		}
		if err := checkResult(c, res); err != nil {
			return nil, err
		}
		if refs[i].digest, err = resultDigest(res, &buf); err != nil {
			return nil, err
		}
		if refs[i].counts, err = registryCounts(reg, res); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return refs, nil
}

// registryCounts folds a run's metrics registry and Result scalars into
// the layer counts of one run.
func registryCounts(reg *obs.Registry, res *exp.Result) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return nil, err
	}
	byName := map[string]string{
		"sched_events":      "sim.events",
		"port_tx_packets":   "fabric.tx_packets",
		"port_ctrl_sent":    "fabric.ctrl_frames",
		"pfc_pauses_sent":   "pfc.pauses",
		"cbfc_updates_sent": "cbfc.updates",
		"port_marked_ce":    "core.ce_marks",
		"port_marked_ue":    "core.ue_marks",
	}
	counts := make(map[string]float64, len(layerCounts))
	for _, name := range layerCounts {
		counts[name] = 0
	}
	for key, v := range snap.Counters {
		name, _, _ := strings.Cut(key, "{")
		if l, ok := byName[name]; ok {
			counts[l] += float64(v)
		}
	}
	for key := range snap.Gauges {
		if strings.HasPrefix(key, "flow_fct_us{") {
			counts["host.flows_done"]++
		}
	}
	counts["routing.cols_materialized"] = res.Scalars["route_cols_materialized"]
	counts["routing.cols_evicted"] = res.Scalars["route_cols_evicted"]
	if counts["sim.events"] == 0 {
		return nil, fmt.Errorf("registry recorded no scheduler events")
	}
	return counts, nil
}

// simWindow is what one timed window of whole cycles measured. Call
// times are CPU time (see selfCPU); wall time is kept for the summary.
type simWindow struct {
	runMs   []float64 // CPU ms per run
	callSec float64   // CPU seconds, summed over calls
	wallSec float64   // wall seconds, summed over calls
	events  float64
	runs    int
	fails   failures
	// speed is the calibration interleaved with the runs.
	speed hostSpeed
	// allocation and GC activity over the window (runtime/metrics).
	allocBytes, gcCycles, gcPauseSec float64
}

// timedWindow runs whole cycles over cases until at least d of wall time
// has passed, timing each call alone and checking its digest outside the
// timing. It calibrates the host's speed (see hostSpeed) on both sides
// of each run, for calShare of the runs' CPU time in all: half a run's
// share before it, estimated from the run before, and the rest after.
// A fat-tree run takes a second, longer than the host keeps one speed.
// Whole cycles keep the mix of configurations the same in every window.
func timedWindow(cases []simCase, refs []reference, d time.Duration, cal *calibrator) simWindow {
	w := simWindow{speed: hostSpeed{cal: cal}}
	var buf bytes.Buffer
	before := readRuntime()
	start := time.Now()
	var prev float64
	for time.Since(start) < d {
		for i, c := range cases {
			w.speed.until(time.Duration(calShare * (w.callSec + prev/2) * 1e9))
			t0, c0 := time.Now(), selfCPU()
			res, err := safeRun(c, obs.Config{})
			cpu, wall := selfCPU()-c0, time.Since(t0)
			w.runs++
			if err == nil {
				asBench(func() { err = checkRun(c, res, refs[i], &buf) })
			}
			if err != nil {
				w.fails.add(err)
				continue
			}
			w.runMs = append(w.runMs, float64(cpu)/1e6)
			w.callSec += cpu.Seconds()
			w.wallSec += wall.Seconds()
			w.events += refs[i].counts["sim.events"]
			prev = cpu.Seconds()
			w.speed.until(time.Duration(calShare * w.callSec * 1e9))
		}
	}
	after := readRuntime()
	w.allocBytes = after.allocBytes - before.allocBytes
	w.gcCycles = after.gcCycles - before.gcCycles
	w.gcPauseSec = after.gcPauseSec - before.gcPauseSec
	return w
}

// eventsPerSec is simulator events per CPU-second of call time. Events
// rather than runs, because how much traffic a seed generates, and so
// the work in one fat-tree run, varies with the seed.
func (w simWindow) eventsPerSec() float64 {
	if w.callSec == 0 {
		return math.NaN()
	}
	return w.events / w.callSec
}

// refEventsPerSec is the gated throughput: eventsPerSec as on the
// reference host.
func (w simWindow) refEventsPerSec() float64 { return w.eventsPerSec() * w.speed.slowdown() }

// runtimeStats is a runtime/metrics snapshot of allocation and GC.
type runtimeStats struct{ allocBytes, gcCycles, gcPauseSec float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var rs runtimeStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		rs.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		rs.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		// Each pause counts at the lower edge of its bucket (the upper
		// edge of the last bucket is +Inf).
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			if lo := h.Buckets[i]; n > 0 && !math.IsInf(lo, 0) {
				rs.gcPauseSec += float64(n) * lo
			}
		}
	}
	return rs
}

// setupTimes times the cases' set-up, and their topology and route-table
// builds alone, in CPU time. One sample builds every case batch times
// and reports the mean time of one build: a single build takes 0.1 to
// 1 ms, too short to time steadily on a shared host, and a batch also
// spreads the collections its garbage triggers evenly. After each pass
// over the cases the host's speed is calibrated, as in timedWindow, and
// the set-up sample is reported as on the reference host. Each returned
// slice holds samples values: set-up in seconds; the topology and
// route-table builds, and the rest of the set-up (the rig), in
// milliseconds as measured.
func setupTimes(cases []simCase, samples, batch int, cal *calibrator) (setup, topoMs, routeMs, rigMs []float64, err error) {
	n := float64(len(cases) * batch)
	routes := make([]func(), 0, len(cases)*batch)
	for i := 0; i < samples; i++ {
		var cpu time.Duration
		speed := hostSpeed{cal: cal}
		for b := 0; b < batch; b++ {
			c0 := selfCPU()
			for _, c := range cases {
				c.setup()
			}
			cpu += selfCPU() - c0
			speed.until(time.Duration(calShare * float64(cpu)))
		}
		if speed.err != nil {
			return nil, nil, nil, nil, speed.err
		}
		t1 := selfCPU()
		routes = routes[:0]
		for b := 0; b < batch; b++ {
			for _, c := range cases {
				routes = append(routes, c.topo())
			}
		}
		t2 := selfCPU()
		for _, r := range routes {
			r()
		}
		t3 := selfCPU()
		setup = append(setup, cpu.Seconds()/n/speed.slowdown())
		topoMs = append(topoMs, float64(t2-t1)/1e6/n)
		routeMs = append(routeMs, float64(t3-t2)/1e6/n)
		rigMs = append(rigMs, float64(cpu-(t2-t1))/1e6/n)
	}
	return setup, topoMs, routeMs, rigMs, nil
}

// peakRSSRuns runs every case once more, each from a collected heap
// returned to the operating system and with VmHWM reset, and reports
// the highest VmHWM a run reached, in MB. The peak over the timed window
// instead moved by up to 20% between identical runs, with where in a run
// the collector happened to start.
func peakRSSRuns(cases []simCase, refs []reference) (float64, failures, error) {
	var peak float64
	var fails failures
	var buf bytes.Buffer
	for i, c := range cases {
		if err := resetPeakRSS(); err != nil {
			return 0, fails, err
		}
		res, err := safeRun(c, obs.Config{})
		mb, rerr := peakRSSMB("self")
		if rerr != nil {
			return 0, fails, rerr
		}
		if err == nil {
			err = checkRun(c, res, refs[i], &buf)
		}
		if err != nil {
			fails.add(err)
		}
		peak = math.Max(peak, mb)
	}
	return peak, fails, nil
}

// runSim measures the unit or fattree workload.
func runSim(o options, cases []simCase, batch int) (*outcome, error) {
	out := &outcome{}
	runtime.GOMAXPROCS(simProcs)
	out.Host = newHostInfo()

	if err := checkGolden(o.golden); err != nil {
		out.fail(err)
		return out, nil
	}

	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.stop()
	setup, topoMs, routeMs, rigMs, err := setupTimes(cases, o.scale.setupSamples, batch, cal)
	if err != nil {
		return nil, err
	}
	refs, err := referenceRuns(cases)
	if err != nil {
		out.fail(err)
		return out, nil
	}
	runtime.GC()

	steal0 := stealTicks()
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		// Half the window untraced, half under the profiler: their
		// throughput ratio is the tracing overhead.
		plain := timedWindow(cases, refs, d/2, cal)
		var traced simWindow
		stacks, err := cpuProfile(func() { traced = timedWindow(cases, refs, d/2, cal) })
		if err == nil {
			err = errors.Join(plain.speed.err, traced.speed.err)
		}
		if err != nil {
			return nil, err
		}
		out.Host.StealTicks = stealTicks() - steal0
		out.attempted = plain.runs + traced.runs
		out.fails.merge(plain.fails)
		out.fails.merge(traced.fails)
		out.addShares(stacks)
		okRuns := float64(traced.runs - traced.fails.n)
		out.add("trace.throughput_ratio", "ratio", traced.eventsPerSec()/plain.eventsPerSec(), traced.runs)
		out.add("alloc.mb_per_run", "MB", traced.allocBytes/1e6/okRuns, traced.runs)
		out.add("gc.cycles_per_run", "count", traced.gcCycles/okRuns, traced.runs)
		out.add("gc.pause_ms_per_run", "ms", traced.gcPauseSec*1e3/okRuns, traced.runs)
		for _, name := range layerCounts {
			var s float64
			for _, r := range refs {
				s += r.counts[name]
			}
			out.add(name, "count", s/float64(len(refs)), len(refs))
		}
		out.add("topo.build_ms", "ms", median(topoMs), len(topoMs))
		out.add("routing.build_ms", "ms", median(routeMs), len(routeMs))
		out.add("exp.rig_build_ms", "ms", median(rigMs), len(rigMs))
		out.addServeZeros()
		return out, nil
	}

	w := timedWindow(cases, refs, d, cal)
	if w.speed.err != nil {
		return nil, w.speed.err
	}
	out.Host.StealTicks = stealTicks() - steal0
	rss, fails, err := peakRSSRuns(cases, refs)
	if err != nil {
		return nil, err
	}
	out.attempted = w.runs + len(cases)
	out.fails.merge(w.fails)
	out.fails.merge(fails)
	ok := w.runs - w.fails.n
	out.add("setup_s", "s", median(setup), len(setup))
	out.add("ops_per_s", "1/s", w.refEventsPerSec(), ok)
	out.add("peak_rss_mb", "MB", rss, len(cases))
	out.add("events_per_s", "1/s", w.eventsPerSec(), ok)
	out.add("host.slowdown", "ratio", w.speed.slowdown(), w.speed.runs)
	out.add("wall_events_per_s", "1/s", w.events/w.wallSec, ok)
	out.addAll(latencyMetrics("run_ms", w.runMs))
	return out, nil
}
