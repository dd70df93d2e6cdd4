package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric is one named measurement with its unit and the number of
// samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics rejects an invalid or repeated name or unit, and any
// value that is not a finite number.
func checkMetrics(ms []metric) error {
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("invalid metric name %q", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s: value %v is not finite", m.Name, m.Value)
		}
		seen[m.Name] = true
	}
	return nil
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailMinBeyond is how many samples must lie beyond a percentile before
// it is reported: fewer, and a single outlier moves it.
const tailMinBeyond = 10

// reportedPercentiles are the candidates percentiles picks from.
var reportedPercentiles = []float64{50, 95, 99}

// percentile is one reported percentile of a sample.
type percentile struct {
	P     float64
	Value float64
}

// percentiles reports the median and higher percentiles of xs, keeping
// only those with at least tailMinBeyond samples beyond them.
func percentiles(xs []float64) []percentile {
	var out []percentile
	for _, p := range reportedPercentiles {
		if float64(len(xs))*(100-p)/100 < tailMinBeyond {
			break
		}
		out = append(out, percentile{p, quantile(xs, p/100)})
	}
	return out
}

// latencyMetrics names every reported percentile of xs as prefix_pNN.
func latencyMetrics(prefix string, xs []float64) []metric {
	var out []metric
	for _, pc := range percentiles(xs) {
		out = append(out, metric{fmt.Sprintf("%s_p%g", prefix, pc.P), "ms", pc.Value, len(xs)})
	}
	return out
}
