package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
)

// This file implements the "stream" experiment: requests cut under a
// frame budget (core.LBLConfig.StreamChunkBytes) against the same
// requests sent as one frame, over a WAN link calibrated so table
// garbling and wire transmission cost about the same — the regime
// where pipelining the build against the wire pays the most. The
// experiment self-audits: it fails unless streaming wins by the gate
// factor, unless streamed request frames stay bounded by the chunk
// budget, and unless the shape auditors see zero length violations,
// including through the mid-stream fault drill.

// streamChunksTarget is about how many frames one access request spans.
const streamChunksTarget = 16

// streamSpeedupGate / streamSpeedupGateQuick are the self-audit
// thresholds on monolithic/streamed end-to-end latency. A perfectly
// pipelined stream on the calibrated link approaches (2b+r)/(b+b/n+r)
// ≈ 1.7x; the gates leave room for scheduler noise and the chunked
// build's smaller per-chunk worker fan-out.
const (
	streamSpeedupGate      = 1.3
	streamSpeedupGateQuick = 1.2
)

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// calibrateStreamLink measures the host's table-build time for cfg
// (full worker fan-out, as in production) and returns a link whose
// bandwidth puts one table on the wire in about one build time, with a
// quarter-build RTT. On this link the monolithic path pays
// build + transmit serially; a pipelined stream pays roughly
// max(build, transmit).
func calibrateStreamLink(cfg core.LBLConfig) (netsim.Link, time.Duration, error) {
	k, err := core.NewTableBuildKernel(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		return netsim.Link{}, 0, err
	}
	if err := k.Op(); err != nil { // warm pools and page the table in
		return netsim.Link{}, 0, err
	}
	const samples = 3
	start := time.Now()
	for i := 0; i < samples; i++ {
		if err := k.Op(); err != nil {
			return netsim.Link{}, 0, err
		}
	}
	build := time.Since(start) / samples
	if build < 100*time.Microsecond {
		build = 100 * time.Microsecond
	}
	bw := int64(float64(cfg.TableBytes()) / build.Seconds())
	return netsim.Link{RTT: build / 4, Bandwidth: bw}, build, nil
}

// streamRun is one measured path of the experiment.
type streamRun struct {
	perOp    time.Duration // mean end-to-end access latency
	maxFrame int           // largest access request frame the server saw
	frames   int           // access request frames per access
}

// streamCluster deploys one LBL proxy/server pair for cfg over link.
func streamCluster(cfg core.LBLConfig, link netsim.Link, data map[string][]byte, reg *obs.Registry) (*Cluster, error) {
	return NewCluster(Config{
		System:           SystemLBL,
		Link:             link,
		ValueSize:        cfg.ValueSize,
		Data:             data,
		LBLMode:          cfg.Mode,
		StreamChunkBytes: cfg.StreamChunkBytes,
		ConnsPerShard:    2,
		Metrics:          reg,
	})
}

// runStreamPath deploys one proxy/server pair over link and measures
// rounds sequential accesses. A cfg with StreamChunkBytes > 0 cuts each
// request into frames; 0 sends it whole. The deployment's shape
// auditors must come back clean.
func runStreamPath(cfg core.LBLConfig, rounds int, link netsim.Link) (streamRun, error) {
	var run streamRun
	reg := obs.NewRegistry()
	const key = "stream-key"
	cluster, err := streamCluster(cfg, link, map[string][]byte{key: make([]byte, cfg.ValueSize)}, reg)
	if err != nil {
		return run, err
	}
	defer cluster.Close()

	var mu sync.Mutex
	accessFrames := 0
	cluster.shards[0].srv.Transport.SetObserver(func(msgType byte, reqLen, respLen int) {
		if msgType != core.MsgLBLAccess {
			return
		}
		mu.Lock()
		accessFrames++
		if reqLen > run.maxFrame {
			run.maxFrame = reqLen
		}
		mu.Unlock()
	})

	if _, _, err := cluster.Access(core.OpRead, key, nil); err != nil { // warm
		return run, err
	}
	mu.Lock()
	accessFrames = 0
	mu.Unlock()
	value := make([]byte, cfg.ValueSize)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if i%2 == 0 {
			value[0] = byte(i)
			if _, _, err := cluster.Access(core.OpWrite, key, value); err != nil {
				return run, fmt.Errorf("access %d: %w", i, err)
			}
		} else {
			got, _, err := cluster.Access(core.OpRead, key, nil)
			if err != nil {
				return run, fmt.Errorf("access %d: %w", i, err)
			}
			if !bytes.Equal(got, value) {
				return run, fmt.Errorf("access %d: read back wrong value", i)
			}
		}
	}
	run.perOp = time.Since(start) / time.Duration(rounds)
	mu.Lock()
	run.frames = accessFrames / rounds
	mu.Unlock()
	if vp, vs := shapeViolations(reg); vp+vs != 0 {
		return run, fmt.Errorf("obliviousness shape violations: proxy=%d server=%d", vp, vs)
	}
	return run, nil
}

// streamFaultDrill runs the drill workload (drill.go), one worker on
// one key, through random connection resets — requests dying between
// frames — and audits it: a request cut after its table reached the
// server, or whose response was lost, may or may not have applied, and
// nothing else may move the key. A reset usually kills the pooled
// connections, so any definite failure is a skipped access and the
// worker pauses after one, letting the background redial land so the
// drill spends its accesses on live streams, not dead sockets.
func streamFaultDrill(cfg core.LBLConfig, accesses int) (resets int64, failed int, err error) {
	plan := &netsim.FaultPlan{Seed: 11, ResetProb: 0.05, MaxFaults: 8}
	plan.SetActive(false)
	reg := obs.NewRegistry()
	keys, data := drillData("fault-key", 1, cfg.ValueSize, 17)
	cluster, err := streamCluster(cfg, netsim.Link{Fault: plan}, data, reg)
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()

	d := newDrill(cluster, keys, 1, 18, outcomeFailed)
	d.failPause = 20 * time.Millisecond
	plan.SetActive(true)
	if err := d.run(accesses); err != nil {
		return 0, 0, fmt.Errorf("stream fault drill: %w", err)
	}
	plan.SetActive(false)
	if _, err := d.audit(); err != nil {
		return 0, 0, fmt.Errorf("stream fault drill audit: %w", err)
	}
	return plan.Stats().Resets, int(d.totals.amb + d.totals.failed), nil
}

// A streamPair is the same sequential accesses measured twice over one
// link calibrated to this host: sent whole, and cut under a frame
// budget of about 1/streamChunksTarget of the table.
type streamPair struct {
	whole, cut streamRun
	cfg        core.LBLConfig // the cut path's config; the whole path's has no budget
	link       netsim.Link
	build      time.Duration // calibrated table-build time
}

func (p streamPair) speedup() float64 { return float64(p.whole.perOp) / float64(p.cut.perOp) }

func measureStreamPair(valueSize, rounds int) (streamPair, error) {
	mono := core.LBLConfig{ValueSize: valueSize, Mode: core.LBLPointPermute}
	p := streamPair{cfg: mono}
	p.cfg.StreamChunkBytes = (mono.TableBytes() + streamChunksTarget - 1) / streamChunksTarget
	var err error
	if p.link, p.build, err = calibrateStreamLink(mono); err != nil {
		return p, err
	}
	if p.whole, err = runStreamPath(mono, rounds, p.link); err != nil {
		return p, fmt.Errorf("whole request: %w", err)
	}
	if p.cut, err = runStreamPath(p.cfg, rounds, p.link); err != nil {
		return p, fmt.Errorf("cut request: %w", err)
	}
	return p, nil
}

// Stream measures the chunked-streaming request path against the
// monolithic one at large values over a calibrated WAN link, then
// drives the streamed path through a mid-stream fault drill.
func Stream(opt Options) (*Table, error) {
	valueSize := 64 << 10 // 64 KiB values: ~33 MiB tables, past the Fig 3b sweep's far end
	rounds := 5
	gate := streamSpeedupGate
	if opt.Quick {
		valueSize = 4 << 10
		rounds = 4
		gate = streamSpeedupGateQuick
	}
	if opt.Ops > 0 {
		rounds = opt.Ops
	}
	p, err := measureStreamPair(valueSize, rounds)
	if err != nil {
		return nil, err
	}

	// Framing witnesses: without a budget a request must cross as one
	// frame, with one as ⌈payload/budget⌉ frames (up to group alignment,
	// which RequestFrames accounts for), and no frame may exceed the
	// budget — that bound is what caps per-request buffering on both
	// ends instead of a whole-table frame.
	if p.whole.frames != 1 {
		return nil, fmt.Errorf("harness: unbudgeted request crossed as %d frames per access, want 1", p.whole.frames)
	}
	if want := p.cfg.RequestFrames(1); p.cut.frames != want || want < streamChunksTarget {
		return nil, fmt.Errorf("harness: budgeted request crossed as %d frames per access, want %d (at least %d)",
			p.cut.frames, want, streamChunksTarget)
	}
	if p.cut.maxFrame > p.cfg.StreamChunkBytes {
		return nil, fmt.Errorf("harness: request frame %dB exceeds the %dB frame budget",
			p.cut.maxFrame, p.cfg.StreamChunkBytes)
	}

	// Mid-stream fault drill on a small streamed config: the ambiguity
	// machinery is size-independent, and faults on 33 MiB tables would
	// only be slow.
	drillCfg := core.LBLConfig{ValueSize: 512, Mode: core.LBLPointPermute}
	drillCfg.StreamChunkBytes = drillCfg.TableBytes() / 4
	drillAccesses := 60
	if opt.Quick {
		drillAccesses = 30
	}
	resets, failed, err := streamFaultDrill(drillCfg, drillAccesses)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "stream",
		Title: fmt.Sprintf("Requests cut under a frame budget, table build pipelined against the wire (%d KiB values, point-permute, calibrated WAN)",
			valueSize>>10),
		Columns: []string{"path", "frames/op", "ms/op", "speedup", "max-req-frame"},
	}
	t.AddRow("whole", fmt.Sprint(p.whole.frames), fmtMSf(int64(p.whole.perOp)), "1.00x",
		fmtBytes(int64(p.whole.maxFrame)))
	t.AddRow("cut", fmt.Sprint(p.cut.frames), fmtMSf(int64(p.cut.perOp)),
		fmt.Sprintf("%.2fx", p.speedup()), fmtBytes(int64(p.cut.maxFrame)))
	t.Notes = append(t.Notes,
		fmt.Sprintf("link calibrated to this host: table build %s, bandwidth %s/s (one table ≈ one build time on the wire), RTT %s",
			p.build.Round(time.Microsecond), fmtBytes(p.link.Bandwidth), p.link.RTT.Round(time.Microsecond)),
		fmt.Sprintf("cut request frames bounded by the %s frame budget; the whole request is one frame carrying the %s table",
			fmtBytes(int64(p.cfg.StreamChunkBytes)), fmtBytes(int64(p.cfg.TableBytes()))),
		fmt.Sprintf("fault drill: %d injected connection resets, %d failed accesses, no acknowledged write lost, 0 shape violations",
			resets, failed),
		"netsim meters transmission time without blocking the sender, so build/wire overlap is genuine simulated-clock overlap")
	if p.speedup() < gate {
		return nil, fmt.Errorf("harness: cutting speedup %.2fx below the %.1fx gate (whole %s/op, cut %s/op)",
			p.speedup(), gate, p.whole.perOp.Round(time.Microsecond), p.cut.perOp.Round(time.Microsecond))
	}
	return t, nil
}
