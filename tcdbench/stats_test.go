package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentilesNeedTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []float64
	}{
		{0, nil},
		{19, nil},
		{20, []float64{50}},
		{199, []float64{50}},
		{200, []float64{50, 95}},
		{999, []float64{50, 95}},
		{1000, []float64{50, 95, 99}},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		var got []float64
		for _, p := range percentiles(xs) {
			got = append(got, p.P)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("n=%d: reported %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestLatencyMetricNames(t *testing.T) {
	xs := make([]float64, 1000)
	var names []string
	for _, m := range latencyMetrics("warm_ms", xs) {
		names = append(names, m.Name)
	}
	want := []string{"warm_ms_p50", "warm_ms_p95", "warm_ms_p99"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("names %v, want %v", names, want)
	}
}

func TestCheckMetricsRejects(t *testing.T) {
	good := metric{"ops_per_s", "1/s", 1, 1}
	if err := checkMetrics([]metric{good}); err != nil {
		t.Fatalf("valid metric rejected: %v", err)
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for name, ms := range map[string][]metric{
		"leading dot":   {{".x", "s", 1, 1}},
		"space":         {{"a b", "s", 1, 1}},
		"plus":          {{"dcqcn+tcd", "s", 1, 1}},
		"too long":      {{string(long), "s", 1, 1}},
		"bad unit":      {{"x", "m s", 1, 1}},
		"empty unit":    {{"x", "", 1, 1}},
		"repeated name": {good, good},
		"NaN":           {{"x", "s", math.NaN(), 1}},
		"Inf":           {{"x", "s", math.Inf(1), 1}},
	} {
		if checkMetrics(ms) == nil {
			t.Errorf("%s: accepted %+v", name, ms)
		}
	}
}

// TestBenchmarkJSONMatches checks that the metric names BENCHMARK.json
// declares are exactly the ones a run's last line carries.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wls, e2e, layers []string
	var ms []metric
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		ms = append(ms, metric{m.Name, m.Unit, 1, 1})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		ms = append(ms, metric{m.Name, m.Unit, 1, 1})
	}
	if err := checkMetrics(ms); err != nil {
		t.Error(err)
	}
	if !reflect.DeepEqual(wls, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", wls, workloads)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command reports %v", layers, perLayer)
	}
}
