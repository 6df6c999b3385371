package main

import (
	"bytes"
	"os"
	"testing"
)

// BENCHMARK.json is generated from the tables in spec.go; this keeps
// the committed file and the names the benchmark prints in step.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --write-spec BENCHMARK.json")
	}
}

func TestEveryMetricIsDeclaredOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range endToEnd {
		if seen[m.name] || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %q: duplicate or bound %v outside (0, 0.25]", m.name, m.bound)
		}
		seen[m.name] = true
	}
	for _, m := range perLayer {
		if seen[m.name] {
			t.Errorf("per-layer metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
}
