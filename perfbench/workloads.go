package main

import (
	"fmt"

	"github.com/gbooster/gbooster/internal/loadgen"
	"github.com/gbooster/gbooster/internal/sim"
)

// workloadSpec is one named workload: who plays what, at what size,
// against which server, and in what order.
type workloadSpec struct {
	name string
	why  string
	// width, height is the streaming resolution.
	width, height int
	// fleet serves every session from one gbooster.Fleet on an
	// in-memory hub; otherwise each session has its own StreamServer
	// on an in-memory rudp pair.
	fleet bool
	// warmup frames per session are played during set-up.
	warmup int
	// drivers is how many goroutines step sessions (0: one per CPU);
	// each driver plays active of its sessions at a time, round-robin
	// (0: all of them).
	drivers, active int
	// budget is each session's length in frames, warm-up included; 0
	// means the session plays until the measured window ends.
	budget int
	// probe names the game of the known-loss probe: after the window,
	// one of its sessions plays on past the budget until it fails (see
	// probeLoss). Empty means no probe.
	probe string
	// plans draws the workload's sessions from the run's seed.
	plans func(seed uint64) []sessionPlan
}

// sessionPlan is one player: the catalog workload it runs and the seed
// of its frame stream.
type sessionPlan struct {
	game string
	seed uint64
}

func (p sessionPlan) String() string { return fmt.Sprintf("%s/seed=%d", p.game, p.seed) }

// budgetLeft is how many frames a session retired after shown displayed
// frames would still have played (the failed frame excluded).
func (w workloadSpec) budgetLeft(shown int) int64 {
	if w.budget == 0 {
		return 0
	}
	return int64(w.budget - shown - 1)
}

// soloSessions is how many scenes a solo run plays back to back, each
// from its own seed drawn from the run's: one scene's cost depends on
// its seed, and a run averages over several. Their budgets together
// outlast the measured window.
const soloSessions = 12

func solo(game string) func(uint64) []sessionPlan {
	return func(seed uint64) []sessionPlan {
		rng := sim.NewRNG(seed)
		plans := make([]sessionPlan, soloSessions)
		for i := range plans {
			plans[i] = sessionPlan{game: game, seed: rng.Uint64()}
		}
		return plans
	}
}

// fleetSessions is fleet-mix's admitted population. Its sessions'
// budgets together outlast a 15 s window up to about 830 frames/s, over
// 1.5 times the fastest run seen; with 64, a quiet host played them all
// in 12 s.
const fleetSessions = 128

// fleetBudget is a fleet-mix session's length in frames. A player's
// command cache holds 32 MiB while a fleet session mirrors 1 MiB, so a
// G2 or G3 session that plays on references a record the fleet has
// evicted: at its 120th frame at the earliest over 2000 G2 seeds, at
// its 146th over 200 G3 seeds. The budget ends every session before
// that, so that no measured frame fails, and the probe shows the loss
// instead.
const fleetBudget = 100

var workloads = []workloadSpec{
	{
		name:  "action-solo",
		why:   "G1 at 640x360, one player and its own StreamServer at a time: raster and turbo transform/entropy dominate; ~127 KB/frame of downlink exercises rudp segmentation",
		width: 640, height: 360,
		warmup:  5,
		drivers: 1, active: 1,
		budget: 100,
		plans:  solo("G1"),
	},
	{
		name:  "fleet-mix",
		why:   "128 catalog sessions at 320x240 on one default Fleet, 4 playing per CPU: demux, GPU gate, egress and rudp carry the load; a probe shows the 1 MiB fleet vs 32 MiB client cache loss",
		width: 320, height: 240,
		fleet:  true,
		warmup: 2,
		active: 4,
		budget: fleetBudget,
		probe:  "G2",
		plans: func(seed uint64) []sessionPlan {
			return catalogMix(loadgen.DefaultCatalog(), fleetSessions, seed)
		},
	},
}

// catalogMix draws n sessions from the catalog: each workload gets its
// population share (its class's weight split evenly over the class's
// workloads), apportioned by largest remainder, and the sessions are
// ordered by smooth weighted round-robin so that every prefix of the
// queue keeps those shares. A run plays only a prefix, so an unordered
// random draw would change the mix, and with it every per-frame cost,
// from seed to seed. The seed draws each session's game seed.
func catalogMix(catalog []loadgen.DeviceClass, n int, seed uint64) []sessionPlan {
	var games []string
	share := map[string]float64{}
	var total float64
	for _, c := range catalog {
		total += c.Weight
		for _, g := range c.Workloads {
			if _, ok := share[g]; !ok {
				games = append(games, g)
			}
			share[g] += c.Weight / float64(len(c.Workloads))
		}
	}
	counts := make([]int, len(games))
	rem := make([]float64, len(games))
	left := n
	for i, g := range games {
		exact := share[g] / total * float64(n)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	rng := sim.NewRNG(seed)
	cur := make([]int, len(games))
	plans := make([]sessionPlan, n)
	for k := range plans {
		best := 0
		for i := range cur {
			cur[i] += counts[i]
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= n
		plans[k] = sessionPlan{game: games[best], seed: rng.Uint64()}
	}
	return plans
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
