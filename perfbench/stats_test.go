package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	// 1000 samples: p99 is rank 990, with exactly 10 beyond it.
	if got, err := percentile(seq(1000), 99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	// 999 samples leave 9 beyond p99: refused.
	if _, err := percentile(seq(999), 99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	// p95 of 200 samples is rank 190 with 10 beyond; of 199 it is refused.
	if got, err := percentile(seq(200), 95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if _, err := percentile(seq(199), 95); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p95 of 199 samples: err = %v, want errTooFewSamples", err)
	}
	// The median needs no tail.
	if got, err := percentile(seq(3), 50); err != nil || got != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples: want an error")
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3, err := quartiles(tc.in)
		if err != nil {
			t.Fatalf("quartiles(%v): %v", tc.in, err)
		}
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestSummarizeSpread(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for i := 1; i <= 10; i++ {
		r := result{Summary: summary{Metrics: map[string]value{"fps": {float64(i), "frames/s"}}}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(dir, fmt.Sprintf("r%d.json", i))
		if err := os.WriteFile(f, b, 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	var out strings.Builder
	if err := summarize(&out, files); err != nil {
		t.Fatal(err)
	}
	// Quartiles of 1..10 are 2.75 and 8.25 around 5.5: a spread of 1.
	if !strings.Contains(out.String(), "median       5.5000") || !strings.Contains(out.String(), "spread 1.0000") {
		t.Errorf("summary of fps 1..10:\n%s", out.String())
	}
}

func TestFailedFraction(t *testing.T) {
	var l frameLedger
	if l.failedFrac() != 0 {
		t.Errorf("empty ledger failed_frac = %v, want 0", l.failedFrac())
	}
	l.Displayed = 150
	// A session fails on its 151st frame with a 240-frame budget: the
	// failed frame and the 89 it never played are all failed.
	spec := workloadSpec{budget: 240}
	l.retire(spec.budgetLeft(150))
	if l.Failed != 90 || l.attempted() != 240 {
		t.Fatalf("after retire: failed %d attempted %d, want 90 of 240", l.Failed, l.attempted())
	}
	if got, want := l.failedFrac(), 90.0/240; got != want {
		t.Errorf("failed_frac = %v, want %v", got, want)
	}
	// Without a budget only the failed frame counts.
	l.retire(workloadSpec{}.budgetLeft(10))
	if l.Failed != 91 {
		t.Errorf("unbudgeted retire: failed %d, want 91", l.Failed)
	}
}

func TestBinMedians(t *testing.T) {
	bins := []bin{
		{d: time.Second, frames: 50, cpu: 1000 * time.Millisecond},
		{d: time.Second, frames: 10, cpu: 900 * time.Millisecond}, // a stalled second
		{d: 2 * time.Second, frames: 100, cpu: 2000 * time.Millisecond},
	}
	fps, cpu, err := binMedians(bins)
	if err != nil || fps != 50 || cpu != 20 {
		t.Errorf("binMedians = %v fps, %v ms/frame, %v; want 50, 20", fps, cpu, err)
	}
	if _, _, err := binMedians(nil); err == nil {
		t.Error("no bins: want an error")
	}
	if _, _, err := binMedians([]bin{{d: time.Second}}); err == nil {
		t.Error("no bin with a frame: want an error")
	}
	// A stalled second counts at 0 frames/s and has no CPU per frame.
	fps, cpu, err = binMedians([]bin{{d: time.Second}, {d: time.Second, frames: 40, cpu: time.Second}, {d: time.Second, frames: 50, cpu: time.Second}})
	if err != nil || fps != 40 || cpu != 22.5 {
		t.Errorf("binMedians with a stalled bin = %v fps, %v ms/frame, %v; want 40, 22.5", fps, cpu, err)
	}
}

func TestBlockPercentile(t *testing.T) {
	lat := make([]float64, 3*tailBlock+50) // the last 50 make no block
	for i := range lat {
		lat[i] = float64(i % tailBlock) // every block holds 0..199
	}
	for i := tailBlock; i < 2*tailBlock; i++ {
		lat[i] += 1000 // one block stalled throughout
	}
	got, err := blockPercentile(lat, 95)
	if err != nil || got != 189 {
		t.Errorf("blockPercentile = %v, %v; want 189, the unstalled blocks' p95", got, err)
	}
	if _, err := blockPercentile(lat[:tailBlock-1], 95); !errors.Is(err, errTooFewSamples) {
		t.Errorf("fewer frames than a block: err = %v, want errTooFewSamples", err)
	}
}

func TestStolenTimeAdjustment(t *testing.T) {
	s := time.Second
	bins := []bin{
		{start: 0, d: s, frames: 50},
		{start: s, d: s, frames: 25, stolen: 0.5}, // the host ran other guests for half the second
		{start: 2 * s, d: s, frames: 40, stolen: 0.2},
	}
	if got := []float64{bins[0].rate(), bins[1].rate(), bins[2].rate()}; got[0] != 50 || got[1] != 50 || got[2] != 50 {
		t.Errorf("rates %v, want 50 frames/s each on the CPU time left", got)
	}
	lat := []float64{20, 40, 25, 30}
	doneAt := []time.Duration{s / 2, 3 * s / 2, 5 * s / 2, 7 * s / 2} // the last falls in no bin
	if got := latenciesIn(bins, lat, doneAt); len(got) != 3 || got[0] != 20 || got[1] != 20 || got[2] != 20 {
		t.Errorf("latenciesIn = %v, want [20 20 20]", got)
	}
	// 1 s of steal over 2 CPUs in 4 s is an eighth of the CPU time.
	prev := stealReading{steal: 3 * s, cpus: 2}
	if got := (stealReading{steal: 4 * s, cpus: 2}).stolenSince(prev, 4*s); got != 0.125 {
		t.Errorf("stolenSince = %v, want 0.125", got)
	}
	if got := (stealReading{steal: 100 * s, cpus: 2}).stolenSince(prev, s); got != maxStolen {
		t.Errorf("stolenSince over the cap = %v, want %v", got, maxStolen)
	}
	if got := (stealReading{}).stolenSince(stealReading{}, s); got != 0 {
		t.Errorf("stolenSince without a steal counter = %v, want 0", got)
	}
}
