package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/units"
)

// TestMain lets the test binary serve as the calibrator child, as the
// benchmark's own executable does.
func TestMain(m *testing.M) {
	if os.Getenv(calibratorEnv) == "1" {
		if err := serveCalibrator(os.Stdin, os.Stdout); err != nil {
			os.Exit(2)
		}
		return
	}
	os.Exit(m.Run())
}

// toyScale runs every workload in a second or two.
var toyScale = scale{
	unitHorizon: units.Millisecond, unitSeeds: 1,
	ftK: 4, ftFlows: 40, ftHorizon: 2 * units.Millisecond, ftSeeds: 1,
	setupSamples: 2, unitSetupBatch: 2, ftSetupBatch: 2, daemonSetups: 2, warmPool: 2, coldSampleEvery: 5, execSamples: 4,
}

// benchmarkUnits maps every metric BENCHMARK.json declares to its unit.
func benchmarkUnits(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

// smoke runs one workload at toy scale and checks its last line.
func smoke(t *testing.T, workload string, trace bool, tcdsimd string) {
	t.Helper()
	o := options{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		tcdsimd: tcdsimd, golden: "../internal/exp/testdata/golden",
		out: t.TempDir(), scale: toyScale,
	}
	out, err := measure(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	correct, err := finish(o, out, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !correct {
		t.Fatalf("run not correct:\n%s", buf.String())
	}
	var line lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(line.Metrics) != len(want) || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("last line %+v; want the %d metrics %v", line, len(want), want)
	}
	units := benchmarkUnits(t)
	for _, name := range want {
		m, ok := line.Metrics[name]
		if !ok {
			t.Errorf("missing %s", name)
			continue
		}
		if m.Unit != units[name] {
			t.Errorf("%s in %s, BENCHMARK.json says %s", name, m.Unit, units[name])
		}
		if !trace && m.Value <= 0 {
			t.Errorf("end-to-end %s = %v; must never be 0", name, m.Value)
		}
	}
	reports, _ := filepath.Glob(filepath.Join(o.out, workload+"-seed3-trace*.json"))
	if len(reports) != 1 {
		t.Errorf("JSON report files %v, want one", reports)
	}
}

func TestSmokeUnit(t *testing.T) {
	smoke(t, "unit", false, "")
	smoke(t, "unit", true, "")
}

func TestSmokeFatTree(t *testing.T) {
	smoke(t, "fattree", false, "")
	smoke(t, "fattree", true, "")
}

func TestSmokeDaemon(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tcdsimd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/tcdnet/tcd/cmd/tcdsimd").CombinedOutput(); err != nil {
		t.Fatalf("building tcdsimd: %v\n%s", err, out)
	}
	smoke(t, "daemon", false, bin)
	smoke(t, "daemon", true, bin)
}

// TestGoldenMismatchFails checks that a run whose golden check fails
// reports itself incorrect instead of measuring.
func TestGoldenMismatchFails(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"fig3.json", "fig3.trace.jsonl", "fig12.json", "fig12.trace.jsonl"} {
		data, err := os.ReadFile(filepath.Join("../internal/exp/testdata/golden", f))
		if err != nil {
			t.Fatal(err)
		}
		if f == "fig12.json" {
			data = bytes.Replace(data, []byte(`"name"`), []byte(`"Name"`), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"unit", false}, {"daemon", false}, {"daemon", true}} {
		o := options{workload: tc.workload, seed: 1, seconds: 1, trace: tc.trace, golden: dir, scale: toyScale}
		out, err := measure(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		correct, err := finish(o, out, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if correct || !strings.Contains(buf.String(), "fig12.json is not reproduced") {
			t.Fatalf("%s trace=%v: golden mismatch not reported:\n%s", tc.workload, tc.trace, buf.String())
		}
	}
}

// TestLosslessNeedsViolationCount checks that a fat-tree case fails when
// its result reports buffer violations, or does not report them at all.
func TestLosslessNeedsViolationCount(t *testing.T) {
	c := simCase{name: "ft", lossless: true}
	res := exp.NewResult("ft")
	if err := checkResult(c, res); err == nil {
		t.Error("missing buffer_violations accepted")
	}
	res.Scalars["buffer_violations"] = 2
	if err := checkResult(c, res); err == nil {
		t.Error("buffer violations accepted")
	}
	res.Scalars["buffer_violations"] = 0
	if err := checkResult(c, res); err != nil {
		t.Errorf("lossless run rejected: %v", err)
	}
	if err := checkResult(simCase{name: "unit"}, exp.NewResult("unit")); err != nil {
		t.Errorf("unit case needs no violation count: %v", err)
	}
}
