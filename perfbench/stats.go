package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail estimated from fewer is mostly noise, so it is refused.
const minTail = 10

// errTooFewSamples reports a percentile the sample cannot support.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the p-th percentile (0 < p < 100) of sorted by
// the nearest-rank rule, refusing it when fewer than minTail samples
// lie strictly beyond the returned value's rank.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of 0 samples: %w", p, errTooFewSamples)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; p > 50 && beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want %d: %w",
			p, n, beyond, minTail, errTooFewSamples)
	}
	return sorted[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile of
// values by the same rule as Python's statistics.quantiles(values,
// n=4) (the "exclusive" method), which is what the run-to-run spread of
// a benchmark metric is judged by. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, err error) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles of %d values: need at least 2", n)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		// Python's loop body, step for step: j is clamped into the
		// data before delta is taken from it.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// summarize prints, for every metric in the result files, the median,
// the quartiles and the interquartile spread as a share of the median
// over the runs: the figures a metric's bound is judged by.
func summarize(w io.Writer, files []string) error {
	values := map[string][]float64{}
	units := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return fmt.Errorf("read result: %w", err)
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("result %s: %w", f, err)
		}
		for name, v := range r.Summary.Metrics {
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q1, q2, q3, err := quartiles(values[name])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "%-34s n=%-3d median %12.4f %-8s q1 %12.4f q3 %12.4f spread %.4f\n",
			name, len(values[name]), q2, units[name], q1, q3, (q3-q1)/math.Abs(q2))
	}
	return nil
}

// frameLedger counts frames per the benchmark's failure rule: every
// frame a session is budgeted is either displayed, failed (errored or
// over the per-frame timeout), or lost with its session after such a
// failure. Nothing is retried.
type frameLedger struct {
	Displayed int64
	Failed    int64
}

// attempted is every frame the run issued or wrote off.
func (l frameLedger) attempted() int64 { return l.Displayed + l.Failed }

// retire records a session's failed frame and writes off the rest of
// its budget: remaining counts the frames it would still have played,
// the failed one excluded.
func (l *frameLedger) retire(remaining int64) {
	l.Failed += 1 + max(remaining, 0)
}

// failedFrac is the share of attempted frames that failed.
func (l frameLedger) failedFrac() float64 {
	if l.attempted() == 0 {
		return 0
	}
	return float64(l.Failed) / float64(l.attempted())
}

// latenciesIn returns the latencies of the frames displayed within
// bins, given each frame's latency and display time, each less the
// share of it the host took for other guests, as its bin measured it.
func latenciesIn(bins []bin, latMS []float64, doneAt []time.Duration) []float64 {
	var out []float64
	for i, at := range doneAt {
		for _, b := range bins {
			if at >= b.start && at < b.start+b.d {
				out = append(out, latMS[i]*(1-b.stolen))
				break
			}
		}
	}
	return out
}
