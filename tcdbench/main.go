// Command tcdbench is the repository's same-host benchmark. It drives
// the simulator and the tcdsimd daemon from outside, through each
// layer's public functions, and reports named end-to-end metrics or,
// from a separate traced run, named per-layer metrics. Every run checks
// the program's outputs and fingerprints the host it ran on.
//
// Usage, from the root of a checkout:
//
//	bash tcdbench/run.sh --workload unit|fattree|daemon|all --seed N --seconds S --trace 0|1
//
// run.sh builds this command and cmd/tcdsimd into .bench_build and runs
// it. README.md in this directory explains the workloads, the metrics,
// and the runtime settings chosen for steady figures.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"github.com/tcdnet/tcd/internal/units"
)

// simProcs is the GOMAXPROCS of the unit and fattree workloads. The
// simulator runs on one goroutine; with more Ps the garbage collector
// spreads over a second core that the host shares, and run-to-run spread
// grows (see README.md).
const simProcs = 1

// endToEnd and perLayer are the metric names BENCHMARK.json declares.
// Every workload reports every one of them; the last line of a run
// carries exactly these.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "peak_rss_mb"}
	perLayer = []string{
		"sim.cpu_share", "sim.events", "gc.cpu_share", "alloc.cpu_share",
		"alloc.mb_per_run", "gc.cycles_per_run", "gc.pause_ms_per_run",
		"fabric.cpu_share", "fabric.tx_packets", "fabric.ctrl_frames",
		"pfc.cpu_share", "pfc.pauses", "cbfc.cpu_share", "cbfc.updates",
		"routing.cpu_share", "routing.build_ms", "routing.cols_materialized",
		"routing.cols_evicted", "topo.build_ms", "exp.rig_build_ms",
		"host.cpu_share", "cc.cpu_share", "host.flows_done",
		"core.cpu_share", "core.ce_marks", "core.ue_marks",
		"serve.parse_us", "serve.hash_us", "serve.exec_ms",
		"serve.cache_hit_ratio", "serve.evicted", "serve.rejected",
		"serve.cpu_share", "nethttp.cpu_share", "json.cpu_share",
		"trace.throughput_ratio",
	}
)

var workloads = []string{"unit", "fattree", "daemon"}

// scale sizes the workloads; tests run a toy scale.
type scale struct {
	unitHorizon  units.Time // 0 = exp.Observe's default 8 ms
	unitSeeds    int
	ftK, ftFlows int
	ftHorizon    units.Time
	ftSeeds      int
	// setupSamples is how many set-up times the median set-up time is
	// taken over; unitSetupBatch and ftSetupBatch are how many times one
	// sample builds every case.
	setupSamples                 int
	unitSetupBatch, ftSetupBatch int
	// daemonSetups is how many daemons are started for the median set-up
	// time; the last one serves the load.
	daemonSetups int
	warmPool     int
	// coldSampleEvery keeps every n-th cold reply of a client for the
	// in-process byte-identity check.
	coldSampleEvery int
	// execSamples bounds the cold specs the traced daemon run executes
	// in-process for serve.exec_ms.
	execSamples int
}

var fullScale = scale{
	unitSeeds: 2,
	ftK:       8, ftFlows: 2000, ftHorizon: 20 * units.Millisecond, ftSeeds: 2,
	setupSamples: 60, unitSetupBatch: 30, ftSetupBatch: 8,
	daemonSetups: 7,
	warmPool:     8, coldSampleEvery: 200, execSamples: 64,
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tcdsimd  string
	golden   string
	out      string
	scale    scale
}

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	n    int
	errs []string
}

const keptErrors = 5

func (f *failures) add(err error) {
	f.n++
	if len(f.errs) < keptErrors {
		f.errs = append(f.errs, err.Error())
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	for _, e := range o.errs {
		if len(f.errs) < keptErrors {
			f.errs = append(f.errs, e)
		}
	}
}

// outcome is everything one workload run measured.
type outcome struct {
	Host      hostInfo
	attempted int
	fails     failures
	metrics   []metric
}

// fail records a failed check that stops the run before it measures.
func (o *outcome) fail(err error) {
	o.attempted++
	o.fails.add(err)
}

func (o *outcome) add(name, unit string, v float64, n int) {
	o.metrics = append(o.metrics, metric{name, unit, v, n})
}

func (o *outcome) addAll(ms []metric) { o.metrics = append(o.metrics, ms...) }

// addShares reports the profile's CPU share of every layer it saw, and
// of every layer perLayer names whether it saw it or not, and how much
// of the CPU time sampled was the benchmark's own.
func (o *outcome) addShares(stacks []profileStack) {
	f := foldShares(stacks)
	for _, name := range perLayer {
		if l, ok := strings.CutSuffix(name, ".cpu_share"); ok {
			if _, seen := f.shares[l]; !seen {
				f.shares[l] = 0
			}
		}
	}
	layers := make([]string, 0, len(f.shares))
	for l := range f.shares {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		o.add(l+".cpu_share", "ratio", f.shares[l], int(f.programSamples))
	}
	o.add("trace.bench_share", "ratio", f.benchShare, int(f.allSamples))
}

// addServeZeros fills the daemon-only per-layer metrics of a simulator
// workload, which never enters the serve layer.
func (o *outcome) addServeZeros() {
	o.add("serve.parse_us", "us", 0, 0)
	o.add("serve.hash_us", "us", 0, 0)
	o.add("serve.exec_ms", "ms", 0, 0)
	o.add("serve.cache_hit_ratio", "ratio", 0, 0)
	o.add("serve.evicted", "count", 0, 0)
	o.add("serve.rejected", "count", 0, 0)
}

// seeds derives n simulation seeds from the workload seed.
func seeds(seed int64, n int) []uint64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(r.Intn(1_000_000)) + 1
	}
	return out
}

func measure(o options) (*outcome, error) {
	switch o.workload {
	case "unit":
		return runSim(o, unitCases(o.scale, seeds(o.seed, o.scale.unitSeeds)), o.scale.unitSetupBatch)
	case "fattree":
		return runSim(o, fatTreeCases(o.scale, seeds(o.seed, o.scale.ftSeeds)), o.scale.ftSetupBatch)
	case "daemon":
		return runDaemon(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, strings.Join(workloads, ", "))
}

// lastLine is the run's final line of standard output.
type lastLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON file written next to the printed summary.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailRatio float64  `json:"fail_ratio"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// finish validates the outcome, prints the summary, writes the JSON
// report, and prints the last line. It reports whether every check
// passed.
func finish(o options, out *outcome, w io.Writer) (bool, error) {
	failRatio := 0.0
	if out.attempted > 0 {
		failRatio = float64(out.fails.n) / float64(out.attempted)
	}
	out.add("fail_ratio", "ratio", failRatio, out.attempted)
	correct := out.fails.n == 0 && out.attempted > 0
	gate := endToEnd
	if o.trace {
		gate = perLayer
	}
	line := lastLine{Correct: correct, Attempted: out.attempted, Failed: out.fails.n, Metrics: map[string]lineMetric{}}
	byName := make(map[string]metric, len(out.metrics))
	for _, m := range out.metrics {
		byName[m.Name] = m
	}
	if correct {
		// A failed run may stop before measuring; it reports no metrics.
		if err := checkMetrics(out.metrics); err != nil {
			return false, err
		}
		for _, name := range gate {
			m, ok := byName[name]
			if !ok {
				return false, fmt.Errorf("workload %s did not report %s", o.workload, name)
			}
			line.Metrics[name] = lineMetric{m.Value, m.Unit}
		}
	}

	fmt.Fprintf(w, "tcdbench workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	h := out.Host
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d", h.CPUModel, h.NProc, h.GOMAXPROCS)
	if h.DaemonGOMAXPROCS > 0 {
		fmt.Fprintf(w, " daemon_gomaxprocs=%d", h.DaemonGOMAXPROCS)
	}
	fmt.Fprintf(w, " pinned_cpu=%d go=%s steal_ticks=%d\n", h.PinnedCPU, h.GoVersion, h.StealTicks)
	for _, m := range out.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", correct, out.attempted, out.fails.n)
	for _, e := range out.fails.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}

	rep := report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: h,
		Correct: correct, Attempted: out.attempted, Failed: out.fails.n, FailRatio: failRatio,
		Errors: out.fails.errs, Metrics: out.metrics,
	}
	if o.out != "" {
		if err := writeReport(o, rep); err != nil {
			return false, err
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", enc)
	return correct, nil
}

func writeReport(o options, rep report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload as a child process, one after another, so
// that each gets a fresh process and its own peak RSS, and prints a last
// line that folds the three together with workload-prefixed names.
func runAll(args []string, w io.Writer) int {
	all := lastLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, wl := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(os.Args[0], append([]string{"--workload", wl}, args...)...)
		cmd.Stdout = io.MultiWriter(w, &buf)
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		var line lastLine
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil || err != nil {
			fmt.Fprintf(os.Stderr, "tcdbench: workload %s failed: %v\n", wl, errors.Join(err, jerr))
			all.Correct = false
		}
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for name, m := range line.Metrics {
			all.Metrics[wl+"."+name] = m
		}
	}
	enc, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcdbench:", err)
		return 2
	}
	fmt.Fprintf(w, "%s\n", enc)
	if !all.Correct {
		return 1
	}
	return 0
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("tcdbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	tcdsimd := fs.String("tcdsimd", ".bench_build/bin/tcdsimd", "tcdsimd binary for the daemon workload")
	golden := fs.String("golden", "internal/exp/testdata/golden", "directory of the committed golden results")
	outDir := fs.String("out", ".bench_build/results", "directory for the JSON report ('' = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "tcdbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		rest := []string{"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace),
			"--tcdsimd", *tcdsimd, "--golden", *golden, "--out", *outDir}
		return runAll(rest, w)
	}
	o := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		tcdsimd: *tcdsimd, golden: *golden, out: *outDir, scale: fullScale,
	}
	out, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcdbench:", err)
		return 2
	}
	correct, err := finish(o, out, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcdbench:", err)
		return 2
	}
	if !correct {
		return 1
	}
	return 0
}

func main() {
	if os.Getenv(calibratorEnv) == "1" {
		if err := serveCalibrator(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tcdbench calibrator:", err)
			os.Exit(2)
		}
		return
	}
	cpu, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcdbench:", err)
		os.Exit(2)
	}
	pinnedCPU = cpu
	os.Exit(run(os.Args[1:], os.Stdout))
}
