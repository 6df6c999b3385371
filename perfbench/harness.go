package main

import (
	"fmt"
	"hash/maphash"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gbooster/gbooster"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
)

// frameTimeout is the per-frame failure limit: a StepFrame that has not
// displayed within it counts as failed and retires its session. It is
// far above a healthy p99 on every workload (tens of milliseconds), so
// only a stalled session reaches it.
const frameTimeout = 250 * time.Millisecond

// warmupTimeout bounds a warm-up frame. Warm-up is set-up, not measured
// play: a session's first frames carry its scene upload and keyframe,
// and a set-up that cannot finish them fails the run instead.
const warmupTimeout = 5 * time.Second

// session is one player the harness drives: its plan, its live player,
// and the identity of every frame it displayed, in display order.
type session struct {
	plan   sessionPlan
	player *gbooster.Player
	shown  []uint64 // hashFrame of each displayed frame, in order
	err    error    // the failure that retired the session, if any
	// probed marks the known-loss probe's session; its frames from
	// probeFrom on were played after the measured window and count
	// toward no metric.
	probed    bool
	probeFrom int
}

// system is one constructed, connected, warmed-up workload: the players
// and whatever serves them.
type system struct {
	spec     workloadSpec
	sessions []*session
	fleet    *gbooster.Fleet // nil for solo workloads
	closers  []func()        // run in reverse order by close
}

// frameHashSeed is the process-wide seed for frame identities; the
// replay hashes with the same seed, so equal hashes mean equal frames.
var frameHashSeed = maphash.MakeSeed()

func hashFrame(pix []byte) uint64 { return maphash.Bytes(frameHashSeed, pix) }

// build constructs the workload's system, connects every player, and
// warms each session up by spec.warmup frames. Warm-up frames are
// displayed and recorded like any other, outside the measured window.
func build(spec workloadSpec, plans []sessionPlan) (sys *system, err error) {
	sys = &system{spec: spec}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	var hub *netsim.Hub
	if spec.fleet {
		fl, err := gbooster.NewFleet(gbooster.FleetConfig{Width: spec.width, Height: spec.height})
		if err != nil {
			return nil, err
		}
		hub = netsim.NewHub("fleet")
		served := make(chan error, 1)
		go func() { served <- fl.ServeConn(hub) }()
		sys.fleet = fl
		sys.closers = append(sys.closers, func() { _ = fl.Close(); <-served })
	}
	for i, plan := range plans {
		player, err := gbooster.NewPlayer(gbooster.PlayerConfig{
			Workload: plan.game, Width: spec.width, Height: spec.height, Seed: plan.seed,
		})
		if err != nil {
			return nil, err
		}
		sys.sessions = append(sys.sessions, &session{plan: plan, player: player})
		sys.closers = append(sys.closers, func() { _ = player.Close() })
		var pc net.PacketConn
		var peer net.Addr
		if hub != nil {
			port, err := hub.Attach(fmt.Sprintf("s%04d", i), netsim.Loopback.Link, plan.seed)
			if err != nil {
				return nil, err
			}
			pc, peer = port, hub.Addr()
		} else {
			srv, err := gbooster.NewStreamServer(gbooster.StreamServerConfig{Width: spec.width, Height: spec.height})
			if err != nil {
				return nil, err
			}
			pcC, pcS := rudp.NewMemPair(0, plan.seed)
			served := make(chan error, 1)
			go func() { served <- srv.ServeConn(pcS, pcC.Addr()) }()
			sys.closers = append(sys.closers, func() { _ = srv.Close(); <-served })
			pc, peer = pcC, pcS.Addr()
		}
		if err := player.ConnectConn("dev0", pc, peer, 1000); err != nil {
			return nil, err
		}
	}
	for _, s := range sys.sessions {
		for f := 0; f < spec.warmup; f++ {
			if _, err := s.step(warmupTimeout); err != nil {
				return nil, fmt.Errorf("warm-up %v frame %d: %w", s.plan, f, err)
			}
		}
	}
	return sys, nil
}

// close tears the system down: players first, then their servers.
func (sys *system) close() {
	for i := len(sys.closers) - 1; i >= 0; i-- {
		sys.closers[i]()
	}
	sys.closers = nil
	for _, s := range sys.sessions {
		s.player = nil // the displayed-frame record outlives the player
	}
}

// step plays one frame and records its identity. It returns the
// issue-to-display time (Eq. 5); a frame that errors or misses timeout
// retires the session.
func (s *session) step(timeout time.Duration) (time.Duration, error) {
	begin := time.Now()
	img, err := s.player.StepFrame(timeout)
	d := time.Since(begin)
	if err != nil {
		s.err = err
		return d, err
	}
	s.shown = append(s.shown, hashFrame(img.Pix))
	return d, nil
}

// window is what one measured interval observed.
type window struct {
	latMS  []float64       // issue-to-display of every frame displayed in the window
	doneAt []time.Duration // when each of those frames was displayed, from the window's start
	bins   []bin           // the window's whole sub-windows
	ledger frameLedger
	wall   time.Duration
	heap   uint64 // peak live heap
	// exhausted reports that a driver ran out of budgeted frames, which
	// ended the window before its time was up.
	exhausted bool

	upBytes, downBytes int64 // player-side uplink wire and downlink payload bytes
	sent, resent       int64 // player-side rudp data datagrams and retransmissions
	fleet              gbooster.FleetStats
	fleetFrames        int64 // fleet-side frames served in the window
	sessionsLost       int
}

// playerTotals sums the snapshot counters the window reports.
type playerTotals struct{ up, down, sent, resent int64 }

func (sys *system) totals() playerTotals {
	var t playerTotals
	for _, s := range sys.sessions {
		snap := s.player.Snapshot()
		t.up += snap.WireBytes
		t.down += snap.DownlinkBytes
		for _, tr := range snap.Transports {
			t.sent += tr.DataSent
			t.resent += tr.DataResent
		}
	}
	return t
}

// measure drives the sessions closed-loop for d with spec.drivers
// goroutines (at most one per session), each stepping its own sessions
// round-robin, so at most that many frames are outstanding. A driver
// plays spec.active of its sessions at a time (all when 0); when one
// ends, by its budget or by failing, the next of its sessions that has
// not played yet takes the slot. No session plays past its budget: a
// driver with none left ends the window for every driver.
func (sys *system) measure(d time.Duration) window {
	drivers := sys.spec.driverCount(len(sys.sessions))
	before := sys.totals()
	var fleetBefore gbooster.FleetStats
	if sys.fleet != nil {
		fleetBefore = sys.fleet.Snapshot().FleetStats
	}
	var frames atomic.Int64
	var exhausted atomic.Bool
	start := time.Now()
	deadline := start.Add(d)
	smp := startSampler(&frames, start)

	lat := make([][]float64, drivers)
	done := make([][]time.Duration, drivers)
	ledgers := make([]frameLedger, drivers)
	var wg sync.WaitGroup
	for k := 0; k < drivers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var own []*session
			for i := k; i < len(sys.sessions); i += drivers {
				own = append(own, sys.sessions[i])
			}
			n := len(own)
			if a := sys.spec.active; a > 0 {
				n = min(a, n)
			}
			active, queued := own[:n:n], own[n:]
			for len(active) > 0 {
				for i := 0; i < len(active); {
					if !time.Now().Before(deadline) || exhausted.Load() {
						return
					}
					s := active[i]
					dt, err := s.step(frameTimeout)
					if err != nil {
						ledgers[k].retire(sys.spec.budgetLeft(len(s.shown)))
					} else {
						ledgers[k].Displayed++
						lat[k] = append(lat[k], float64(dt)/float64(time.Millisecond))
						done[k] = append(done[k], time.Since(start))
						frames.Add(1)
					}
					over := sys.spec.budget > 0 && len(s.shown) >= sys.spec.budget
					switch {
					case err == nil && !over:
						i++
					case len(queued) > 0:
						active[i], queued = queued[0], queued[1:]
						i++
					default:
						active = append(active[:i], active[i+1:]...)
					}
				}
			}
			exhausted.Store(true)
		}(k)
	}
	wg.Wait()
	w := window{wall: time.Since(start), exhausted: exhausted.Load()}
	smp.stop()
	w.bins, w.heap = smp.bins, smp.heap
	for k := range lat {
		w.latMS = append(w.latMS, lat[k]...)
		w.doneAt = append(w.doneAt, done[k]...)
		w.ledger.Displayed += ledgers[k].Displayed
		w.ledger.Failed += ledgers[k].Failed
	}
	after := sys.totals()
	w.upBytes, w.downBytes = after.up-before.up, after.down-before.down
	w.sent, w.resent = after.sent-before.sent, after.resent-before.resent
	if sys.fleet != nil {
		f := sys.fleet.Snapshot().FleetStats
		w.fleet = f
		w.fleetFrames = f.Frames - fleetBefore.Frames
		w.fleet.GateEntries -= fleetBefore.GateEntries
		w.fleet.GateWaits -= fleetBefore.GateWaits
		w.fleet.EgressDatagrams -= fleetBefore.EgressDatagrams
		w.fleet.EgressDrops -= fleetBefore.EgressDrops
		w.sessionsLost = int(f.Admitted - f.Sessions)
	}
	return w
}

// probeFrames caps the known-loss probe: a session that plays this many
// frames without failing shows the loss is gone.
const probeFrames = 600

// probeLoss plays the first healthy session of spec.probe on past its
// budget, after the measured window and outside every count, until it
// fails or reaches probeFrames. It returns the session's index, or -1
// when the workload names no probe or has no such session.
func (sys *system) probeLoss() int {
	for i, s := range sys.sessions {
		if sys.spec.probe == "" || s.plan.game != sys.spec.probe || s.err != nil {
			continue
		}
		s.probed, s.probeFrom = true, len(s.shown)
		for len(s.shown) < probeFrames {
			if _, err := s.step(frameTimeout); err != nil {
				break
			}
		}
		return i
	}
	return -1
}

// driverCount resolves spec.drivers for n sessions.
func (w workloadSpec) driverCount(n int) int {
	d := w.drivers
	if d <= 0 {
		d = runtime.GOMAXPROCS(0)
	}
	return min(d, n)
}

// cpuTime is the process's user plus system CPU time so far: the phone
// side and the server side together, since both run in this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealReading is the host's steal counter at one instant: the CPU
// time the hypervisor has run other guests on this machine's CPUs while
// they had work to do (the "steal" column of /proc/stat, summed over
// every CPU), and how many CPUs that covers.
type stealReading struct {
	steal time.Duration
	cpus  int
}

// maxStolen caps the stolen share an adjustment divides by.
const maxStolen = 0.9

// readSteal reads the steal counter; it reads zero where the kernel
// does not report one.
func readSteal() stealReading {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealReading{}
	}
	var r stealReading
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			ticks, _ := strconv.ParseInt(f[8], 10, 64)
			r.steal = time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			r.cpus++
		}
	}
	return r
}

// stolenSince is the share of this machine's CPU time, over the wall
// interval since prev, that the hypervisor gave other guests; at most
// maxStolen.
func (r stealReading) stolenSince(prev stealReading, wall time.Duration) float64 {
	if r.cpus == 0 || wall <= 0 {
		return 0
	}
	share := (r.steal - prev.steal).Seconds() / (wall.Seconds() * float64(r.cpus))
	return min(max(share, 0), maxStolen)
}

// binWidth is the sub-window fps and CPU per frame are taken over. A
// run reports their median across its bins, so a burst of contention
// from outside the process in one bin does not move the result.
const binWidth = time.Second

// bin is one sub-window: when it began (from the window's start), its
// length, the frames displayed in it, the process CPU time spent in it,
// and the share of the machine's CPU time the host took for other
// guests in it.
type bin struct {
	start, d time.Duration
	frames   int64
	cpu      time.Duration
	stolen   float64
}

// rate is the bin's frame rate on the CPU time the host left this
// machine: frames over the bin's length less its stolen share.
func (b bin) rate() float64 { return float64(b.frames) / (b.d.Seconds() * (1 - b.stolen)) }

// sampler watches a measured window from its own goroutine: it closes
// a bin every binWidth and tracks the peak live heap.
type sampler struct {
	frames *atomic.Int64 // displayed so far, counted by the drivers
	start  time.Time     // the window's start
	done   chan struct{}
	exited chan struct{}
	bins   []bin
	heap   uint64
}

// liveHeap is the heap the last garbage collection found reachable;
// its peak over a window is the run's memory footprint, free of the
// collector's timing.
var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func startSampler(frames *atomic.Int64, start time.Time) *sampler {
	s := &sampler{frames: frames, start: start, done: make(chan struct{}), exited: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.exited)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	last, lastCPU, lastFrames, lastSteal := s.start, cpuTime(), s.frames.Load(), readSteal()
	for {
		metrics.Read(liveHeap)
		s.heap = max(s.heap, liveHeap[0].Value.Uint64())
		if now := time.Now(); now.Sub(last) >= binWidth {
			cpu, frames, steal := cpuTime(), s.frames.Load(), readSteal()
			s.bins = append(s.bins, bin{start: last.Sub(s.start), d: now.Sub(last), frames: frames - lastFrames,
				cpu: cpu - lastCPU, stolen: steal.stolenSince(lastSteal, now.Sub(last))})
			last, lastCPU, lastFrames, lastSteal = now, cpu, frames, steal
		}
		select {
		case <-s.done:
			return
		case <-t.C:
		}
	}
}

// stop ends sampling; the unfinished last bin is dropped.
func (s *sampler) stop() {
	close(s.done)
	<-s.exited
}
