// Command perfbench is the repository's frame benchmark. It plays one
// named workload through the public API (StreamServer or Fleet, then
// Player.StepFrame) closed-loop for a fixed time, reports the paper's
// Eq. 5 response time and the costs around it, and checks every
// displayed frame against a layer-by-layer replay of the same seed.
//
//	perfbench --workload action-solo --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced replay, whose
// spans are written to the --out directory when the run ends. The last
// line of standard output is the result as one JSON object. Set-up and
// teardown stay outside every timed region. All links are in-memory and
// lossless, so the run opens no sockets.
//
// With --write-spec FILE it writes BENCHMARK.json from the metric and
// workload tables instead of running; with --summarize FILE... it prints
// each metric's median and interquartile spread over earlier results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, and the last system built is the one measured.
const setupRounds = 3

// psnrFloor is the least mean PSNR of displayed frames against the
// rendered framebuffer that counts as a correct picture at the default
// codec quality.
const psnrFloor = 25.0

func main() {
	var (
		name           = flag.String("workload", "", "workload to run: "+workloadNames())
		seed           = flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds        = flag.Int("seconds", runSeconds, "length of the measured window in seconds")
		traced         = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		out            = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
		writeSpec      = flag.String("write-spec", "", "write BENCHMARK.json to this file and exit")
		commit         = flag.String("commit", "unknown", "source commit, recorded in the result's provenance")
		summarizeFiles = flag.Bool("summarize", false, "print each metric's median, quartiles and spread over the result files given as arguments, and exit")
	)
	flag.Parse()
	if *summarizeFiles {
		if err := summarize(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *writeSpec != "" {
		spec, err := benchmarkSpec()
		if err == nil {
			err = os.WriteFile(*writeSpec, spec, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	spec, err := workloadByName(*name)
	if err != nil || time.Duration(*seconds)*time.Second < 2*binWidth || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= %v, --trace 0|1\n", workloadNames(), 2*binWidth)
		os.Exit(2)
	}
	prov := currentProvenance(spec, *seed, *seconds, *traced == 1, *commit)
	res, err := run(spec, prov, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.Summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Summary.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line: exactly the keys the benchmark contract
// names.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance says where and on what a result was measured.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Links      string `json:"links"`
}

func currentProvenance(spec workloadSpec, seed uint64, seconds int, traced bool, commit string) provenance {
	return provenance{
		Workload: spec.name, Seed: seed, Seconds: seconds, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: commit,
		Links: "in-memory, lossless (rudp mem pair or netsim hub loopback); no sockets",
	}
}

// cpuModel reads the processor name the kernel reports, if it can.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is a finished run: the result line and everything written to
// the result file beside it.
type result struct {
	Summary    summary            `json:"result"`
	Provenance provenance         `json:"provenance"`
	Check      checkReport        `json:"check"`
	Extra      map[string]float64 `json:"extra"`
	// BinFPS is each whole sub-window's frame rate by the wall clock,
	// in order, and BinStolen the share of the machine's CPU time the
	// host took for other guests in it.
	BinFPS    []float64 `json:"bin_fps"`
	BinStolen []float64 `json:"bin_stolen"`
}

// checkReport is the output check's verdict.
type checkReport struct {
	Sessions   int      `json:"sessions"`
	Frames     int      `json:"frames_compared"`
	Mismatches int      `json:"mismatches"`
	PSNR       float64  `json:"psnr_db"`
	PSNRFloor  float64  `json:"psnr_floor_db"`
	Failures   []string `json:"failures"`
	// KnownLoss is what the known-loss probe's session did after the
	// window; its frames are in no count.
	KnownLoss string   `json:"known_loss,omitempty"`
	Problems  []string `json:"problems"`
}

func run(spec workloadSpec, prov provenance, outDir string) (*result, error) {
	seed, traced := prov.Seed, prov.Trace
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t\n", spec.name, seed, prov.Seconds, traced)
	fmt.Printf("provenance nproc=%d gomaxprocs=%d %s cpu=%q commit=%s links=%q\n",
		prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.CPU, prov.Commit, prov.Links)

	plans := spec.plans(seed)
	var setups, setupsWall []float64
	var sys *system
	for i := 0; i < setupRounds; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		steal, begin := readSteal(), time.Now()
		var err error
		if sys, err = build(spec, plans); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(begin)
		setupsWall = append(setupsWall, wall.Seconds())
		setups = append(setups, wall.Seconds()*(1-readSteal().stolenSince(steal, wall)))
	}
	runtime.GC()
	w := sys.measure(time.Duration(prov.Seconds) * time.Second)
	probe := sys.probeLoss()
	sys.close()

	rep := replayAll(spec, sys.sessions, traced)
	check := checkFrames(sys.sessions, rep, probe)

	res := &result{Provenance: prov, Check: check, Extra: map[string]float64{}}
	res.Summary = summary{
		Correct:   len(check.Problems) == 0,
		Attempted: w.ledger.attempted(),
		Failed:    w.ledger.Failed,
		Metrics:   map[string]value{},
	}
	sorted := append([]float64(nil), w.latMS...)
	sort.Float64s(sorted)
	meanFrameMS := mean(w.latMS)
	if !traced {
		if err := endToEndMetrics(res, w, setups); err != nil {
			return nil, err
		}
	} else {
		layerMetrics(res, w, rep, meanFrameMS)
		if err := writeSpans(outDir, spec.name, seed, rep.spans); err != nil {
			return nil, err
		}
	}
	var stolen float64
	for _, b := range w.bins {
		res.BinFPS = append(res.BinFPS, float64(b.frames)/b.d.Seconds())
		res.BinStolen = append(res.BinStolen, b.stolen)
		stolen += b.stolen
	}
	res.Extra["stolen_share"] = stolen / float64(max(len(w.bins), 1))
	if probe >= 0 && sys.sessions[probe].err != nil {
		res.Extra["known_loss_frame"] = float64(len(sys.sessions[probe].shown))
	}
	res.Extra["window_s"] = w.wall.Seconds()
	if len(w.latMS) > 0 {
		res.Extra["frame_ms_p50_wall"] = median(w.latMS)
	}
	res.Extra["replay_s"] = rep.wall.Seconds()
	res.Extra["setup_s_wall"] = median(setupsWall)
	res.Extra["frames_displayed"] = float64(w.ledger.Displayed)
	res.Extra["failed_frac"] = w.ledger.failedFrac()
	res.Extra["frame_ms_mean"] = meanFrameMS
	if p95, err := blockPercentile(w.latMS, 95); err == nil {
		res.Extra["frame_ms_p95"] = p95
	}
	if p99, err := percentile(sorted, 99); err == nil {
		res.Extra["frame_ms_p99"] = p99
	}
	report(res, w)
	if err := writeResult(outDir, res); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEndMetrics fills the untraced run's metrics. Times are taken on
// the CPU time the host left this machine: each sub-window's frame rate
// and each frame's time are scaled by the share of the machine's CPU
// time the host gave other guests in that sub-window, and each set-up
// by the share in it. The wall-clock figures go in the result file.
func endToEndMetrics(res *result, w window, setups []float64) error {
	n := float64(w.ledger.Displayed)
	if n == 0 {
		return errors.New("no frame displayed in the measured window")
	}
	put := func(name string, v float64) { res.Summary.Metrics[name] = value{v, unitOf(name)} }
	lat := latenciesIn(w.bins, w.latMS, w.doneAt)
	if len(lat) == 0 {
		return fmt.Errorf("no frame displayed in a whole %v sub-window", binWidth)
	}
	put("frame_ms_p50", median(lat))
	fps, cpu, err := binMedians(w.bins)
	if err != nil {
		return err
	}
	put("fps", fps)
	put("cpu_ms_per_frame", cpu)
	put("uplink_kb_per_frame", float64(w.upBytes)/1e3/n)
	put("downlink_kb_per_frame", float64(w.downBytes)/1e3/n)
	put("psnr_db", res.Check.PSNR)
	put("heap_mb", float64(w.heap)/1e6)
	put("setup_s", median(setups))
	return nil
}

// layerMetrics fills the traced run's metrics: busy time per frame from
// the replay's spans, work counts from the replay, and the fleet and
// transport counters of the untraced window it followed.
func layerMetrics(res *result, w window, rep replayResult, untracedMeanMS float64) {
	c := rep.counts
	frames := float64(max(c.frames, 1))
	var busy [numLayers]int64
	var frameNS, layerNS int64
	for _, s := range rep.spans {
		if s.Layer == layerFrame {
			frameNS += s.Busy
			continue
		}
		busy[s.Layer] += s.Busy
		layerNS += s.Busy
	}
	us := func(l layer) float64 { return float64(busy[l]) / 1e3 / frames }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	put := func(name string, v float64) { res.Summary.Metrics[name] = value{v, unitOf(name)} }
	put("gles.execute_us", us(layerExecute))
	put("gles.fragments_per_frame", float64(c.fragments)/frames)
	put("turbo.encode_us", us(layerTurboEncode))
	put("turbo.tiles_sent_ratio", ratio(float64(c.tilesSent), float64(c.tilesTotal)))
	put("turbo.decode_us", us(layerTurboDecode))
	put("turbo.kb_per_frame", float64(c.turboBytes)/1e3/frames)
	put("glwire.encode_us", us(layerWireEncode))
	put("glwire.decode_us", us(layerWireDecode))
	put("glwire.raw_kb_per_frame", float64(c.rawBytes)/1e3/frames)
	put("cmdcache.encode_us", us(layerCacheEncode))
	put("cmdcache.decode_us", us(layerCacheDecode))
	put("cmdcache.hit_ratio", ratio(float64(c.cacheHits), float64(c.records)))
	put("lz4.compress_us", us(layerCompress))
	put("lz4.decompress_us", us(layerDecompress))
	put("lz4.ratio", ratio(float64(c.preCompress), float64(c.compressed)))
	put("rudp.uplink_us", us(layerUplink))
	put("rudp.downlink_us", us(layerDownlink))
	put("rudp.datagrams_per_frame", float64(c.datagrams)/frames)
	put("rudp.resend_ratio", ratio(float64(w.resent), float64(w.sent+w.resent)))
	put("fleet.gate_wait_ratio", ratio(float64(w.fleet.GateWaits), float64(w.fleet.GateEntries)))
	put("fleet.sessions_lost", float64(w.sessionsLost))
	put("fleet.egress_drops", float64(w.fleet.EgressDrops))
	put("fleet.egress_datagrams_per_frame", ratio(float64(w.fleet.EgressDatagrams), float64(w.fleetFrames)))
	put("workload.next_frame_us", us(layerNextFrame))
	put("hook.gl_calls_per_frame", float64(c.glCalls)/frames)
	put("core.unattributed_ms", untracedMeanMS-float64(layerNS)/1e6/frames)
	put("trace.overhead_ratio", ratio(float64(frameNS)/1e6/frames, untracedMeanMS))
}

// tailBlock is how many consecutive frames a tail percentile is taken
// over: the fewest that leave minTail samples beyond p95.
const tailBlock = 200

// blockPercentile is the median, over consecutive blocks of tailBlock
// frames in display order, of each block's p-th percentile. A burst of
// contention from outside the process inflates the tail of the blocks
// it falls in, not the median block.
func blockPercentile(lat []float64, p float64) (float64, error) {
	var tails []float64
	for i := 0; i+tailBlock <= len(lat); i += tailBlock {
		block := append([]float64(nil), lat[i:i+tailBlock]...)
		sort.Float64s(block)
		v, err := percentile(block, p)
		if err != nil {
			return 0, err
		}
		tails = append(tails, v)
	}
	if len(tails) == 0 {
		return 0, fmt.Errorf("p%g over %d-frame blocks of %d frames: %w", p, tailBlock, len(lat), errTooFewSamples)
	}
	return median(tails), nil
}

// binMedians is the median over the window's bins of frames per second
// and of CPU milliseconds per frame (over the bins that displayed one).
func binMedians(bins []bin) (fps, cpuMS float64, err error) {
	var rates, costs []float64
	for _, b := range bins {
		rates = append(rates, b.rate())
		if b.frames > 0 {
			costs = append(costs, float64(b.cpu)/float64(time.Millisecond)/float64(b.frames))
		}
	}
	if len(costs) == 0 {
		return 0, 0, fmt.Errorf("no %v sub-window of the window displayed a frame", binWidth)
	}
	return median(rates), median(costs), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: metric " + name + " is not declared")
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// checkFrames turns the replay into the run's verdict: every displayed
// frame of every session must equal the replay's decoded frame, and the
// displayed picture must stay within psnrFloor of what was rendered.
// probe is the known-loss probe's session (-1 for none), whose failure
// is reported apart from the window's.
func checkFrames(sessions []*session, rep replayResult, probe int) checkReport {
	c := checkReport{Sessions: len(sessions), PSNRFloor: psnrFloor}
	for i, s := range sessions {
		sc := rep.checks[i]
		c.Frames += sc.frames
		c.Mismatches += sc.mismatches
		if sc.replayErr != nil {
			c.Problems = append(c.Problems, fmt.Sprintf("session %d replay: %v", i, sc.replayErr))
		}
		if sc.mismatches > 0 {
			c.Problems = append(c.Problems, fmt.Sprintf("session %d (%v): %d of %d frames differ from the replay",
				i, s.plan, sc.mismatches, sc.frames))
		}
		var failure string
		if s.err != nil {
			cause := "replay played the frame cleanly"
			if sc.failCause != nil {
				cause = "replay fails too: " + sc.failCause.Error()
			}
			failure = fmt.Sprintf("session %d (%v) failed at frame %d: %v; %s", i, s.plan, len(s.shown), s.err, cause)
		}
		switch {
		case i == probe && s.err == nil:
			c.KnownLoss = fmt.Sprintf("session %d (%v) played %d frames without failing", i, s.plan, len(s.shown))
		case i == probe:
			c.KnownLoss = failure
		case s.err != nil:
			c.Failures = append(c.Failures, failure)
		}
	}
	if rep.counts.frames > 0 {
		c.PSNR = rep.counts.psnrSum / float64(rep.counts.frames)
	}
	if c.Frames == 0 {
		c.Problems = append(c.Problems, "no displayed frame was checked")
	} else if c.PSNR < psnrFloor || math.IsNaN(c.PSNR) {
		c.Problems = append(c.Problems, fmt.Sprintf("mean PSNR %.2f dB below the %.0f dB floor", c.PSNR, psnrFloor))
	}
	return c
}

// report prints every metric by name with its unit, then the check.
func report(res *result, w window) {
	names := make([]string, 0, len(res.Summary.Metrics))
	for name := range res.Summary.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	moves := map[string]string{}
	for _, m := range perLayer {
		moves[m.name] = fmt.Sprintf("  should move %s on %s", m.moves, m.on)
	}
	for _, name := range names {
		m := res.Summary.Metrics[name]
		fmt.Printf("%-34s %14.4f %-8s%s\n", name, m.Value, m.Unit, moves[name])
	}
	fmt.Printf("frames: %d displayed in %.2fs, %d failed of %d attempted (failed_frac %.4f)\n",
		w.ledger.Displayed, w.wall.Seconds(), w.ledger.Failed, w.ledger.attempted(), w.ledger.failedFrac())
	if w.exhausted {
		fmt.Println("window: ended early, every budgeted frame of a driver's sessions was played")
	}
	if p95, ok := res.Extra["frame_ms_p95"]; ok {
		fmt.Printf("frame_ms_p95: %.4f ms, median over %d-frame blocks\n", p95, tailBlock)
	}
	if p99, ok := res.Extra["frame_ms_p99"]; ok {
		fmt.Printf("frame_ms_p99: %.4f ms over all %d samples\n", p99, len(w.latMS))
	} else {
		fmt.Printf("frame_ms_p99: not reported, %d samples leave fewer than %d beyond it\n", len(w.latMS), minTail)
	}
	for _, f := range res.Check.Failures {
		fmt.Println("failure:", f)
	}
	if res.Check.KnownLoss != "" {
		fmt.Println("known loss, probed after the window and counted in no metric:", res.Check.KnownLoss)
	}
	fmt.Printf("check: %d frames of %d sessions compared with the replay, %d differ; mean PSNR %.2f dB (floor %.0f)\n",
		res.Check.Frames, res.Check.Sessions, res.Check.Mismatches, res.Check.PSNR, res.Check.PSNRFloor)
	for _, p := range res.Check.Problems {
		fmt.Println("check FAILED:", p)
	}
}

func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	p := res.Provenance
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", p.Workload, p.Seed, map[bool]int{false: 0, true: 1}[p.Trace])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// writeSpans writes the traced replay's spans, one JSON object a line.
// A layer span's parent is the frame span with the same session and
// frame.
func writeSpans(dir, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, `{"session":%d,"frame":%d,"layer":%q,"calls":%d,"start_ns":%d,"end_ns":%d,"busy_ns":%d}`+"\n",
			s.Session, s.Frame, s.Layer.String(), s.Calls, s.Start, s.End, s.Busy)
	}
	name := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err := os.WriteFile(name, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), name)
	return nil
}
