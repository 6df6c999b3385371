package main

import (
	"strings"
	"testing"
	"time"
)

// playSmall builds a small system, plays frames through it, and tears
// it down, leaving the sessions' displayed-frame record.
func playSmall(t *testing.T, spec workloadSpec, plans []sessionPlan) []*session {
	t.Helper()
	sys, err := build(spec, plans)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys.close()
	return sys.sessions
}

func TestReplayMatchesDisplayedFrames(t *testing.T) {
	for _, spec := range []workloadSpec{
		{name: "solo", width: 64, height: 48, warmup: 6},
		{name: "fleet", width: 64, height: 48, warmup: 4, fleet: true},
	} {
		t.Run(spec.name, func(t *testing.T) {
			sessions := playSmall(t, spec, []sessionPlan{{game: "G5", seed: 7}, {game: "A2", seed: 8}})
			rep := replayAll(spec, sessions, true)
			c := checkFrames(sessions, rep, -1)
			if len(c.Problems) != 0 || c.Frames != 2*spec.warmup || c.Mismatches != 0 {
				t.Fatalf("honest run: %d frames, %d mismatches, problems %q", c.Frames, c.Mismatches, c.Problems)
			}
			if c.PSNR < psnrFloor {
				t.Errorf("PSNR %.2f dB below the floor", c.PSNR)
			}
			// One span per layer per frame, plus the frame span itself.
			if want := 2 * spec.warmup * (int(numLayers) + 1); len(rep.spans) != want {
				t.Errorf("%d spans, want %d", len(rep.spans), want)
			}
		})
	}
}

func TestCorruptedFrameFailsCheck(t *testing.T) {
	spec := workloadSpec{name: "solo", width: 64, height: 48, warmup: 5}
	sessions := playSmall(t, spec, []sessionPlan{{game: "G5", seed: 3}})
	sessions[0].shown[3] ^= 1 // one displayed frame no longer matches
	c := checkFrames(sessions, replayAll(spec, sessions, false), -1)
	if c.Mismatches != 1 || len(c.Problems) != 1 || !strings.Contains(c.Problems[0], "1 of 5 frames differ") {
		t.Fatalf("corrupted frame: %d mismatches, problems %q", c.Mismatches, c.Problems)
	}
}

func TestNothingCheckedFails(t *testing.T) {
	c := checkFrames(nil, replayResult{}, -1)
	if len(c.Problems) == 0 {
		t.Fatal("a run that compared no frame passed the check")
	}
}

// A short measured window on a small fleet exercises the drivers'
// rotation (sessions end on their budget and hand over their slot):
// no session plays past its budget, the window ends when the sessions
// run out, and the replay reproduces the record frame for frame.
func TestMeasuredWindowReplays(t *testing.T) {
	spec := workloadSpec{name: "fleet", width: 64, height: 48, fleet: true, warmup: 2, drivers: 1, active: 1, budget: 12}
	plans := []sessionPlan{{game: "A1", seed: 1}, {game: "A2", seed: 2}, {game: "G5", seed: 3}, {game: "G6", seed: 4}}
	sys, err := build(spec, plans)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	w := sys.measure(time.Minute)
	sys.close()
	if !w.exhausted || w.wall >= time.Minute {
		t.Fatalf("window of %v did not end when the budgets ran out", w.wall)
	}
	if want := int64(len(plans) * (spec.budget - spec.warmup)); w.ledger.Displayed != want || w.ledger.Failed != 0 ||
		int64(len(w.latMS)) != want || len(w.doneAt) != len(w.latMS) {
		t.Fatalf("ledger %+v with %d latencies, want %d displayed and none failed", w.ledger, len(w.latMS), want)
	}
	for i, s := range sys.sessions {
		if len(s.shown) != spec.budget {
			t.Errorf("session %d displayed %d frames, want its budget %d", i, len(s.shown), spec.budget)
		}
	}
	c := checkFrames(sys.sessions, replayAll(spec, sys.sessions, false), -1)
	if len(c.Problems) != 0 || len(c.Failures) != 0 {
		t.Fatalf("check: problems %q, failures %q", c.Problems, c.Failures)
	}
}

// The known-loss probe plays a G2 session on until its command cache
// outgrows the fleet's mirror. The replay must name that cause, the
// failure must stay out of the window's failures, and the probe's
// frames must stay out of the replay's counts and spans.
func TestProbeShowsKnownLoss(t *testing.T) {
	spec := workloadSpec{name: "fleet", width: 64, height: 48, fleet: true, warmup: 2, drivers: 1, active: 1, budget: 6, probe: "G2"}
	plans := []sessionPlan{{game: "A2", seed: 1}, {game: "G2", seed: 2}}
	sys, err := build(spec, plans)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys.measure(time.Minute)
	probe := sys.probeLoss()
	sys.close()
	if probe != 1 {
		t.Fatalf("probe played session %d, want 1, the G2 session", probe)
	}
	s := sys.sessions[probe]
	if s.err == nil || s.probeFrom != spec.budget || len(s.shown) <= spec.budget {
		t.Fatalf("probe: err %v after %d frames from frame %d; want a failure past the budget", s.err, len(s.shown), s.probeFrom)
	}
	rep := replayAll(spec, sys.sessions, true)
	c := checkFrames(sys.sessions, rep, probe)
	if len(c.Problems) != 0 || len(c.Failures) != 0 {
		t.Fatalf("check: problems %q, failures %q", c.Problems, c.Failures)
	}
	if !strings.Contains(c.KnownLoss, "replay fails too: cmdcache decode") {
		t.Errorf("known loss not reproduced by the replay: %q", c.KnownLoss)
	}
	if c.Frames != len(s.shown)+spec.budget {
		t.Errorf("%d frames compared, want every displayed frame, %d", c.Frames, len(s.shown)+spec.budget)
	}
	if want := 2 * spec.budget; rep.counts.frames != int64(want) || len(rep.spans) != want*(int(numLayers)+1) {
		t.Errorf("replay counted %d frames in %d spans, want the %d measured frames only", rep.counts.frames, len(rep.spans), want)
	}
}
