package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// runSeconds is how long one run measures.
const runSeconds = 15

// e2eMetric is an end-to-end metric: what a player or an operator sees.
// bound is the share of the parent's median by which it may worsen.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the untraced run's metrics. Each is never zero on any
// workload, so its run-to-run spread is defined. Failed frames are not
// a metric here (they are zero on a healthy workload); the result's
// attempted and failed counts carry them. The bounds are wide because
// runs on a small shared host differ by ten per cent and more in every
// timing, even with the host's steal taken out (see README.md), and a
// downlink byte count follows the scenes a seed draws.
// The frame-time tail (p95, and p99 where the window supports it) is
// printed and kept in the result file but carries no bound: on a
// 2-vCPU host it doubled in runs that shared the CPU with a neighbour.
var endToEnd = []e2eMetric{
	{"frame_ms_p50", "ms", "lower", 0.25},
	{"fps", "frames/s", "higher", 0.25},
	{"cpu_ms_per_frame", "ms", "lower", 0.25},
	{"uplink_kb_per_frame", "KB", "lower", 0.1},
	{"downlink_kb_per_frame", "KB", "lower", 0.25},
	{"psnr_db", "dB", "higher", 0.05},
	{"heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetric is a per-layer metric from the traced run, with the
// end-to-end metric it should move and the workload it should move it
// on (and the one it should leave alone), written down before any
// optimisation is measured.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

var perLayer = []layerMetric{
	{"gles.execute_us", "us", "lower", "frame_ms_p50, fps", "action-solo (less on fleet-mix: serial, small frames)"},
	{"gles.fragments_per_frame", "count", "lower", "frame_ms_p50, fps", "action-solo (less on fleet-mix: serial, small frames)"},
	{"turbo.encode_us", "us", "lower", "frame_ms_p50, cpu_ms_per_frame", "action-solo (transform, entropy) and fleet-mix (change scan)"},
	{"turbo.tiles_sent_ratio", "ratio", "higher", "frame_ms_p50, cpu_ms_per_frame", "fleet-mix, where most tiles are unchanged (not action-solo)"},
	{"turbo.decode_us", "us", "lower", "frame_ms_p50", "both workloads"},
	{"turbo.kb_per_frame", "KB", "lower", "downlink_kb_per_frame", "both workloads"},
	{"glwire.encode_us", "us", "lower", "cpu_ms_per_frame", "fleet-mix (not action-solo)"},
	{"glwire.decode_us", "us", "lower", "cpu_ms_per_frame", "fleet-mix (not action-solo)"},
	{"glwire.raw_kb_per_frame", "KB", "lower", "uplink_kb_per_frame", "fleet-mix (not action-solo)"},
	{"cmdcache.encode_us", "us", "lower", "uplink_kb_per_frame", "fleet-mix (not action-solo)"},
	{"cmdcache.decode_us", "us", "lower", "uplink_kb_per_frame", "fleet-mix (not action-solo)"},
	{"cmdcache.hit_ratio", "ratio", "higher", "uplink_kb_per_frame, failed frames", "fleet-mix (not action-solo)"},
	{"lz4.compress_us", "us", "lower", "uplink_kb_per_frame, cpu_ms_per_frame", "fleet-mix (not action-solo)"},
	{"lz4.decompress_us", "us", "lower", "cpu_ms_per_frame", "fleet-mix (not action-solo)"},
	{"lz4.ratio", "ratio", "higher", "uplink_kb_per_frame", "fleet-mix (not action-solo)"},
	{"rudp.uplink_us", "us", "lower", "frame_ms_p50, the printed p95/p99 tail", "fleet-mix"},
	{"rudp.downlink_us", "us", "lower", "frame_ms_p50, the printed p95/p99 tail", "fleet-mix; action-solo for segmentation"},
	{"rudp.datagrams_per_frame", "count", "lower", "frame_ms_p50", "action-solo"},
	{"rudp.resend_ratio", "ratio", "lower", "the printed p95/p99 tail", "fleet-mix"},
	{"fleet.gate_wait_ratio", "ratio", "lower", "fps, the printed p95/p99 tail", "fleet-mix (action-solo bypasses the fleet)"},
	{"fleet.sessions_lost", "count", "lower", "failed frames, fps", "fleet-mix (action-solo bypasses the fleet)"},
	{"fleet.egress_drops", "count", "lower", "the printed p95/p99 tail", "fleet-mix (action-solo bypasses the fleet)"},
	{"fleet.egress_datagrams_per_frame", "count", "lower", "fps, the printed p95/p99 tail", "fleet-mix (action-solo bypasses the fleet)"},
	{"workload.next_frame_us", "us", "lower", "frame_ms_p50 (canary: should not move)", "both workloads"},
	{"hook.gl_calls_per_frame", "count", "lower", "frame_ms_p50 (canary: should not move)", "both workloads"},
	{"core.unattributed_ms", "ms", "lower", "frame_ms_p50", "fleet-mix (hand-offs between sessions)"},
	{"trace.overhead_ratio", "ratio", "lower", "none (tracing cost of the traced run)", "both workloads"},
}

// specFile is BENCHMARK.json's layout.
type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specE2E      `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkSpec renders BENCHMARK.json from the tables above, so the
// names the benchmark prints and the names it declares cannot drift.
func benchmarkSpec() ([]byte, error) {
	f := specFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, specE2E{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, specLayer{m.name, m.unit, m.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, fmt.Errorf("encode spec: %w", err)
	}
	return buf.Bytes(), nil
}
