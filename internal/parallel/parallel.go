// Package parallel provides the data plane's shared worker pool: a
// persistent set of goroutines, sized by runtime.NumCPU at first use,
// that fan contiguous index spans out across cores. The turbo codec
// parallelizes over tiles and the rasterizer over scanline bands, each
// submitting from its own session's goroutine — all against this one
// pool, so total data-plane concurrency stays bounded by the machine
// rather than by the number of live codecs.
//
// Determinism contract: Do only decides WHERE a span executes, never
// what it computes. Callers keep output deterministic by writing each
// span's results into disjoint, index-addressed storage and joining in
// index order; every user in this repo follows that discipline and
// asserts byte-identical output against the serial path in its tests.
package parallel

import (
	"runtime"
	"sync"
)

var (
	startOnce sync.Once
	poolSize  int
	tasks     chan *span
	groups    = sync.Pool{New: func() any { return new(group) }}
)

// group is one Do call's join state. Groups are pooled and their span
// slots reused, so a steady-state Do allocates nothing: the task channel
// carries pointers into the group's span slice, never fresh closures.
type group struct {
	wg       sync.WaitGroup
	fn       func(lo, hi int)
	panicMu  sync.Mutex
	panicked bool
	panicVal any
	spans    []span
}

// span is one contiguous index range of a group's work.
type span struct {
	g      *group
	lo, hi int
}

// run executes the span, recording the first panic on its group.
func (sp *span) run() {
	g := sp.g
	defer g.wg.Done()
	defer g.recoverSpan()
	g.fn(sp.lo, sp.hi)
}

func (g *group) recoverSpan() {
	if r := recover(); r != nil {
		g.panicMu.Lock()
		if !g.panicked {
			g.panicked, g.panicVal = true, r
		}
		g.panicMu.Unlock()
	}
}

// start spins the persistent workers up. They park on the task channel
// for the life of the process; the pool is never torn down, exactly
// like the runtime's own background workers.
func start() {
	poolSize = runtime.NumCPU()
	tasks = make(chan *span, 4*poolSize)
	for i := 0; i < poolSize; i++ {
		go func() {
			for sp := range tasks {
				sp.run()
			}
		}()
	}
}

// Workers returns the size of the shared pool (runtime.NumCPU at the
// time the pool first started).
func Workers() int {
	startOnce.Do(start)
	return poolSize
}

// Degree resolves a caller-facing parallelism knob: values <= 0 mean
// "use every core" (the pool size); anything else passes through.
func Degree(n int) int {
	if n <= 0 {
		return Workers()
	}
	return n
}

// Do partitions [0, n) into contiguous spans and runs fn over all of
// them, using up to roughly `degree` additional workers from the shared
// pool. degree <= 0 means the full pool; degree == 1 runs fn(0, n)
// inline with no goroutines at all (the serial reference path). The
// submitting goroutine always executes spans itself, so Do makes
// progress even when the pool is saturated by other submitters and can
// never deadlock on pool capacity. Do returns when every span has
// completed; a panic in any span is re-raised on the caller.
func Do(degree, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	degree = Degree(degree)
	if degree == 1 || n == 1 {
		fn(0, n)
		return
	}
	startOnce.Do(start)

	// Oversubscribe spans 2x the degree: spans are statically sized, so
	// extra spans let fast workers absorb imbalance (e.g. rasterizer
	// bands where all triangles landed in one region).
	spans := 2 * degree
	if spans > n {
		spans = n
	}

	g := groups.Get().(*group)
	g.fn = fn
	if cap(g.spans) < spans {
		g.spans = make([]span, spans)
	}
	g.spans = g.spans[:spans]
	g.wg.Add(spans)
	q, r := n/spans, n%spans
	lo := 0
	for i := range g.spans {
		hi := lo + q
		if i < r {
			hi++
		}
		sp := &g.spans[i]
		*sp = span{g: g, lo: lo, hi: hi}
		if i == spans-1 {
			// The submitter always works the last span itself.
			sp.run()
		} else {
			select {
			case tasks <- sp:
			default:
				// Pool backlogged: run inline rather than block.
				sp.run()
			}
		}
		lo = hi
	}
	g.wg.Wait()
	panicked, panicVal := g.panicked, g.panicVal
	g.fn, g.panicked, g.panicVal = nil, false, nil
	groups.Put(g)
	if panicked {
		panic(panicVal)
	}
}
