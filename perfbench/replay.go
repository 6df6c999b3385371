package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/fleet"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/turbo"
	"github.com/gbooster/gbooster/internal/workload"
)

// The replay pushes a session's frames through each layer's public
// entry point, in the order core calls them, with the same settings the
// measured run's players and servers use. Its decoded frames must be
// byte-identical to what StepFrame displayed.

// layer indexes the replay's stages in call order.
type layer int8

const (
	layerNextFrame layer = iota
	layerWireEncode
	layerCacheEncode
	layerCompress
	layerUplink
	layerDecompress
	layerCacheDecode
	layerWireDecode
	layerExecute
	layerTurboEncode
	layerDownlink
	layerTurboDecode
	numLayers
)

// layerFrame marks a whole-frame span, the parent of its layer spans.
const layerFrame layer = -1

var layerNames = [numLayers]string{
	"workload.next_frame", "glwire.encode", "cmdcache.encode", "lz4.compress",
	"rudp.uplink", "lz4.decompress", "cmdcache.decode", "glwire.decode",
	"gles.execute", "turbo.encode", "rudp.downlink", "turbo.decode",
}

func (l layer) String() string {
	if l == layerFrame {
		return "frame"
	}
	return layerNames[l]
}

// span is one layer's work within one frame. Layers called once per
// frame have one call; per-record layers (glwire, cmdcache decode,
// gles) are timed call by call and folded into one span per frame,
// covering first call start to last call end, with busy time the sum of
// the calls. Times are nanoseconds from the tracer's epoch.
type span struct {
	Session, Frame int32
	Layer          layer
	Calls          int32
	Start, End     int64
	Busy           int64
}

// tracer collects spans in memory. A nil tracer records nothing and
// reads no clock, which is how the untraced output check runs.
type tracer struct {
	epoch time.Time
	cur   [numLayers]span
	spans []span
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add folds one call of l that began at start into the current frame.
func (t *tracer) add(l layer, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	s := &t.cur[l]
	if s.Calls == 0 {
		s.Start = start
	}
	s.Calls++
	s.End = end
	s.Busy += end - start
}

// frameDone emits the frame's span and its layer spans.
func (t *tracer) frameDone(session, frame int, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.spans = append(t.spans, span{Session: int32(session), Frame: int32(frame), Layer: layerFrame,
		Calls: 1, Start: start, End: end, Busy: end - start})
	for l := range t.cur {
		if t.cur[l].Calls > 0 {
			s := t.cur[l]
			s.Session, s.Frame, s.Layer = int32(session), int32(frame), layer(l)
			t.spans = append(t.spans, s)
		}
		t.cur[l] = span{}
	}
}

// replayCounts are the per-layer work counts the replay measures where
// the work happens.
type replayCounts struct {
	frames      int64
	glCalls     int64
	fragments   int64
	rawBytes    int64 // glwire records
	records     int64
	cacheHits   int64
	preCompress int64 // cmdcache wire bytes
	compressed  int64 // lz4 output bytes
	turboBytes  int64
	tilesSent   int64
	tilesTotal  int64
	datagrams   int64 // rudp data datagrams, both directions
	psnrSum     float64
}

func (c *replayCounts) merge(o replayCounts) {
	c.frames += o.frames
	c.glCalls += o.glCalls
	c.fragments += o.fragments
	c.rawBytes += o.rawBytes
	c.records += o.records
	c.cacheHits += o.cacheHits
	c.preCompress += o.preCompress
	c.compressed += o.compressed
	c.turboBytes += o.turboBytes
	c.tilesSent += o.tilesSent
	c.tilesTotal += o.tilesTotal
	c.datagrams += o.datagrams
	c.psnrSum += o.psnrSum
}

// psnrCap stands in for an identical frame's infinite PSNR so a mean
// stays finite.
const psnrCap = 100.0

// replayer is one session's two ends, built from the layers directly.
type replayer struct {
	game *workload.Game

	// Phone side.
	enc    *glwire.Encoder
	encBuf []byte
	split  [][]byte
	recs   [][]byte // this frame's records, copied out of encBuf
	cli    *cmdcache.Cache
	comp   *lz4.Compressor
	wire   []byte
	msg    []byte
	tdec   *turbo.Decoder
	phone  *rudp.Conn
	server *rudp.Conn

	// Server side.
	decomp *lz4.Decompressor
	raw    []byte
	srv    *cmdcache.Cache
	dec    glwire.Decoder
	gpu    *gles.GPU
	tenc   *turbo.Encoder

	counts replayCounts
}

// recvTimeout bounds one in-memory rudp delivery; on a lossless pair it
// is never approached.
const recvTimeout = 5 * time.Second

// newReplayer mirrors the settings the measured run uses: Player and
// StreamServer library defaults, or the Fleet's per-session server
// (serial render, fleet.DefaultCacheBytes) for fleet workloads.
func newReplayer(spec workloadSpec, plan sessionPlan) (*replayer, error) {
	prof, err := workload.ByID(plan.game)
	if err != nil {
		return nil, err
	}
	game := workload.NewGame(prof, plan.seed)
	serverCache, serverPar := 0, 0
	if spec.fleet {
		serverCache, serverPar = fleet.DefaultCacheBytes, 1
	}
	r := &replayer{
		game:   game,
		enc:    glwire.NewEncoder(game.Arrays()),
		cli:    cmdcache.New(0),
		comp:   lz4.NewCompressor(),
		tdec:   turbo.NewDecoder(spec.width, spec.height, turbo.DefaultQuality),
		decomp: lz4.NewDecompressor(),
		srv:    cmdcache.New(serverCache),
		gpu:    gles.NewGPU(spec.width, spec.height),
		tenc:   turbo.NewEncoder(spec.width, spec.height, turbo.DefaultQuality),
	}
	r.tdec.SetParallelism(0)
	r.gpu.SetParallelism(serverPar)
	r.tenc.SetParallelism(serverPar)
	pcPhone, pcServer := rudp.NewMemPair(0, plan.seed)
	r.phone = rudp.New(pcPhone, pcServer.Addr(), rudp.DefaultOptions())
	r.server = rudp.New(pcServer, pcPhone.Addr(), rudp.DefaultOptions())
	return r, nil
}

func (r *replayer) close() {
	_ = r.phone.Close()
	_ = r.server.Close()
}

// frame replays the next frame and returns the phone's decoded frame
// and the server's rendered framebuffer; both alias replayer state
// valid until the next call.
func (r *replayer) frame(t *tracer) (decoded, rendered []byte, err error) {
	s := t.now()
	fr := r.game.NextFrame()
	t.add(layerNextFrame, s)
	r.counts.glCalls += int64(len(fr.Commands))

	// Phone: serialize each intercepted call; the frame ships at its
	// SwapBuffers boundary, which ends every generated frame.
	r.recs = r.recs[:0]
	for i, cmd := range fr.Commands {
		s = t.now()
		buf, err := r.enc.Encode(r.encBuf[:0], cmd)
		r.encBuf = buf
		var recs [][]byte
		if err == nil && len(buf) > 0 {
			recs, err = glwire.AppendSplitRecords(r.split[:0], buf)
			r.split = recs
		}
		t.add(layerWireEncode, s)
		if err != nil {
			return nil, nil, fmt.Errorf("glwire encode %v: %w", cmd.Op, err)
		}
		for _, rec := range recs {
			r.keep(rec)
			r.counts.rawBytes += int64(len(rec))
		}
		if cmd.IsFrameBoundary() != (i == len(fr.Commands)-1) {
			return nil, nil, errors.New("frame boundary is not the frame's last call")
		}
	}
	r.counts.records += int64(len(r.recs))

	s = t.now()
	wire, hits, err := r.cli.EncodeAll(r.wire[:0], r.recs)
	r.wire = wire
	t.add(layerCacheEncode, s)
	if err != nil {
		return nil, nil, fmt.Errorf("cmdcache encode: %w", err)
	}
	r.counts.cacheHits += int64(hits)
	r.counts.preCompress += int64(len(wire))

	s = t.now()
	r.msg = r.comp.Compress(r.msg[:0], wire)
	t.add(layerCompress, s)
	r.counts.compressed += int64(len(r.msg))

	s = t.now()
	in, err := transfer(r.phone, r.server, r.msg)
	t.add(layerUplink, s)
	if err != nil {
		return nil, nil, fmt.Errorf("rudp uplink: %w", err)
	}

	// Server: decompress, then resolve, decode and execute record by
	// record, as core's executeBatch does.
	s = t.now()
	raw, err := r.decomp.Decompress(r.raw[:0], in, lz4.MaxBlockSize)
	r.raw = raw
	t.add(layerDecompress, s)
	r.server.Release(in)
	if err != nil {
		return nil, nil, fmt.Errorf("lz4 decompress: %w", err)
	}
	frameDone := false
	for len(raw) > 0 {
		s = t.now()
		rec, n, err := r.srv.DecodeRecord(raw)
		t.add(layerCacheDecode, s)
		if err != nil {
			return nil, nil, fmt.Errorf("cmdcache decode: %w", err)
		}
		raw = raw[n:]
		s = t.now()
		cmd, _, err := r.dec.DecodeNoCopy(rec)
		t.add(layerWireDecode, s)
		if err != nil {
			return nil, nil, fmt.Errorf("glwire decode: %w", err)
		}
		s = t.now()
		res, _ := r.gpu.Execute(cmd) // GL errors are diagnostics, as on the server
		t.add(layerExecute, s)
		r.counts.fragments += res.Fragments
		frameDone = frameDone || res.FrameDone
	}
	if !frameDone {
		return nil, nil, errors.New("batch ended without a frame")
	}

	sent0, tiles0 := r.tenc.Stats.TilesSent, r.tenc.Stats.TilesTotal
	s = t.now()
	pkt, err := r.tenc.Encode(r.gpu.FB.Pix, false)
	t.add(layerTurboEncode, s)
	if err != nil {
		return nil, nil, fmt.Errorf("turbo encode: %w", err)
	}
	r.counts.turboBytes += int64(len(pkt))
	r.counts.tilesSent += int64(r.tenc.Stats.TilesSent - sent0)
	r.counts.tilesTotal += int64(r.tenc.Stats.TilesTotal - tiles0)

	s = t.now()
	back, err := transfer(r.server, r.phone, pkt)
	t.add(layerDownlink, s)
	if err != nil {
		return nil, nil, fmt.Errorf("rudp downlink: %w", err)
	}

	s = t.now()
	pix, err := r.tdec.Decode(back)
	t.add(layerTurboDecode, s)
	r.phone.Release(back)
	if err != nil {
		return nil, nil, fmt.Errorf("turbo decode: %w", err)
	}
	r.counts.frames++
	return pix, r.gpu.FB.Pix, nil
}

// keep appends a copy of rec to the frame's records, reusing the
// buffer a previous frame left in that slot: rec aliases encBuf, which
// the next Encode overwrites.
func (r *replayer) keep(rec []byte) {
	n := len(r.recs)
	var buf []byte
	if n < cap(r.recs) {
		buf = r.recs[:n+1][n][:0]
	}
	r.recs = append(r.recs, append(buf, rec...))
}

// transfer moves one message across the in-memory rudp pair.
func transfer(from, to *rudp.Conn, msg []byte) ([]byte, error) {
	if err := from.Send(msg); err != nil {
		return nil, err
	}
	return to.Recv(recvTimeout)
}

// sessionCheck is one session's replay verdict.
type sessionCheck struct {
	frames     int   // frames replayed and compared
	mismatches int   // of those, frames not byte-identical to the displayed one
	replayErr  error // the replay failing before it covered every displayed frame
	// failCause is what the replay hit at the frame the measured run
	// failed on (nil if it played that frame cleanly).
	failCause error
}

// replaySession replays every frame s displayed, compares each with
// what StepFrame returned, and, if the session was retired by a
// failure, replays the failing frame too to name its cause. Frames the
// known-loss probe played are compared but neither traced nor counted.
func replaySession(spec workloadSpec, idx int, s *session, t *tracer) (sessionCheck, replayCounts) {
	var c sessionCheck
	r, err := newReplayer(spec, s.plan)
	if err != nil {
		c.replayErr = err
		return c, replayCounts{}
	}
	defer r.close()
	counted := len(s.shown)
	if s.probed {
		counted = s.probeFrom
	}
	var kept replayCounts
	for f, want := range s.shown {
		if f == counted {
			kept = r.countsNow()
			t = nil
		}
		start := t.now()
		decoded, rendered, err := r.frame(t)
		if err != nil {
			c.replayErr = fmt.Errorf("%v frame %d: %w", s.plan, f, err)
			break
		}
		t.frameDone(idx, f, start)
		c.frames++
		if hashFrame(decoded) != want {
			c.mismatches++
		}
		p := turbo.PSNR(rendered, decoded)
		if math.IsInf(p, 1) || p > psnrCap {
			p = psnrCap
		}
		r.counts.psnrSum += p
	}
	if counted == len(s.shown) {
		kept = r.countsNow()
	}
	if s.err != nil && c.replayErr == nil {
		// The failing frame was never displayed.
		_, _, c.failCause = r.frame(nil)
	}
	return c, kept
}

// countsNow is the replay's work so far, with the datagrams both ends
// have sent.
func (r *replayer) countsNow() replayCounts {
	c := r.counts
	c.datagrams = r.phone.Stats().DataSent + r.server.Stats().DataSent
	return c
}

// replayResult aggregates a whole workload's replay.
type replayResult struct {
	checks []sessionCheck
	counts replayCounts
	spans  []span
	wall   time.Duration // how long the replay took
}

// replayAll replays every session, spreading sessions over as many
// workers as the measured run had drivers, so layers run at the same
// concurrency as they did there. With traced set, each worker records
// spans.
func replayAll(spec workloadSpec, sessions []*session, traced bool) replayResult {
	workers := spec.driverCount(len(sessions))
	res := replayResult{checks: make([]sessionCheck, len(sessions))}
	counts := make([]replayCounts, len(sessions))
	tracers := make([]*tracer, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		if traced {
			tracers[k] = &tracer{epoch: start}
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(sessions); i += workers {
				res.checks[i], counts[i] = replaySession(spec, i, sessions[i], tracers[k])
			}
		}(k)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for i := range counts {
		res.counts.merge(counts[i])
	}
	for _, t := range tracers {
		if t != nil {
			res.spans = append(res.spans, t.spans...)
		}
	}
	return res
}
