package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
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

// runStreamPath deploys one proxy/server pair over link and measures
// rounds sequential accesses. A cfg with StreamChunkBytes > 0 cuts each
// request into frames; 0 sends it whole. The deployment's shape
// auditors must come back clean.
func runStreamPath(cfg core.LBLConfig, rounds int, link netsim.Link) (streamRun, error) {
	var run streamRun
	reg := obs.NewRegistry()
	store := kvstore.New()
	serverTS := transport.NewServer()
	serverTS.AuditShape(obs.NewShapeAuditor(reg, "server"), core.ShapeClassify)
	core.RegisterLoader(serverTS, store)
	core.NewLBLServer(store).Register(serverTS)
	ln := netsim.Listen(link)
	go serverTS.Serve(ln) //nolint:errcheck // returns on Close
	defer serverTS.Close()

	rpc, err := transport.Dial(ln.Dial, 2)
	if err != nil {
		return run, err
	}
	defer rpc.Close()
	rpc.AuditShape(obs.NewShapeAuditor(reg, "proxy"), core.ShapeClassify)
	proxy, err := core.NewLBLProxy(cfg, prf.NewRandom(), rpc)
	if err != nil {
		return run, err
	}
	ek, rec, err := proxy.BuildRecord("stream-key", make([]byte, cfg.ValueSize))
	if err != nil {
		return run, err
	}
	if err := core.BulkLoad(rpc, []core.KV{{Key: ek, Record: rec}}); err != nil {
		return run, err
	}

	var mu sync.Mutex
	accessFrames := 0
	serverTS.SetObserver(func(msgType byte, reqLen, respLen int) {
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

	if _, _, err := proxy.Access(core.OpRead, "stream-key", nil); err != nil { // warm
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
			if _, _, err := proxy.Access(core.OpWrite, "stream-key", value); err != nil {
				return run, fmt.Errorf("access %d: %w", i, err)
			}
		} else {
			got, _, err := proxy.Access(core.OpRead, "stream-key", nil)
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

// streamFaultDrill runs a sequential streamed workload through random
// connection resets (streams dying mid-chunk) and verifies the
// ambiguity machinery: every read observes a value the write history
// could have produced, the final state loses no acknowledged write,
// and the shape auditors stay clean through every fault.
func streamFaultDrill(cfg core.LBLConfig, accesses int) (resets int64, failed int, err error) {
	plan := &netsim.FaultPlan{Seed: 11, ResetProb: 0.05, MaxFaults: 8}
	plan.SetActive(false)
	reg := obs.NewRegistry()
	store := kvstore.New()
	serverTS := transport.NewServer()
	serverTS.AuditShape(obs.NewShapeAuditor(reg, "server"), core.ShapeClassify)
	core.RegisterLoader(serverTS, store)
	core.NewLBLServer(store).Register(serverTS)
	ln := netsim.Listen(netsim.Link{Fault: plan})
	go serverTS.Serve(ln) //nolint:errcheck // returns on Close
	defer serverTS.Close()

	rpc, err := transport.Dial(ln.Dial, 2)
	if err != nil {
		return 0, 0, err
	}
	defer rpc.Close()
	rpc.AuditShape(obs.NewShapeAuditor(reg, "proxy"), core.ShapeClassify)
	proxy, err := core.NewLBLProxy(cfg, prf.NewRandom(), rpc)
	if err != nil {
		return 0, 0, err
	}
	initial := make([]byte, cfg.ValueSize)
	ek, rec, err := proxy.BuildRecord("fault-key", initial)
	if err != nil {
		return 0, 0, err
	}
	if err := core.BulkLoad(rpc, []core.KV{{Key: ek, Record: rec}}); err != nil {
		return 0, 0, err
	}

	plan.SetActive(true)
	// possible tracks every value the key may hold: an ambiguous write
	// (stream cut after the table reached the server, or the response
	// lost) may or may not have applied; a successful access collapses
	// the set to what it observed or wrote.
	possible := map[string]bool{string(initial): true}
	// A failed access usually means the reset killed the pooled
	// connections; pausing briefly lets the background redial land so
	// the drill spends its accesses on live streams, not dead sockets.
	backoff := func() { time.Sleep(20 * time.Millisecond) }
	for i := 0; i < accesses; i++ {
		if i%3 == 2 {
			got, _, rerr := proxy.Access(core.OpRead, "fault-key", nil)
			if rerr != nil {
				failed++
				backoff()
				continue
			}
			if !possible[string(got)] {
				return 0, 0, fmt.Errorf("access %d read a value outside the possible set", i)
			}
			possible = map[string]bool{string(got): true}
			continue
		}
		v := make([]byte, cfg.ValueSize)
		v[0], v[1] = byte(i+1), byte(i>>8)
		if _, _, werr := proxy.Access(core.OpWrite, "fault-key", v); werr != nil {
			failed++
			if transport.Ambiguous(werr) {
				possible[string(v)] = true
			}
			backoff()
			continue
		}
		possible = map[string]bool{string(v): true}
	}
	plan.SetActive(false)

	// Final verification on a healthy network; the retry loop gives the
	// pool's background redial (exponential backoff) time to restore
	// connections killed by the last reset.
	var got []byte
	for attempt := 0; ; attempt++ {
		var rerr error
		got, _, rerr = proxy.Access(core.OpRead, "fault-key", nil)
		if rerr == nil {
			break
		}
		if attempt == 40 {
			return 0, 0, fmt.Errorf("final read after fault drill: %w", rerr)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !possible[string(got)] {
		return 0, 0, fmt.Errorf("final value outside the possible set: an acknowledged write was lost or a ghost write applied")
	}
	if vp, vs := shapeViolations(reg); vp+vs != 0 {
		return 0, 0, fmt.Errorf("obliviousness shape violations under faults: proxy=%d server=%d", vp, vs)
	}
	return plan.Stats().Resets, failed, nil
}

// StreamBench is the bench experiment's streamed-vs-monolithic
// end-to-end point (BenchReport.Stream). It is additive: the bench
// regression gate reads only the kernel sections, so baselines
// written before this section exist stay comparable.
type StreamBench struct {
	ValueSize     int     `json:"value_size"`
	Chunks        int     `json:"chunks"`
	ChunkBytes    int     `json:"chunk_bytes"`
	BandwidthBps  int64   `json:"link_bandwidth_bps"`
	RTTMillis     float64 `json:"link_rtt_ms"`
	MonoMsPerOp   float64 `json:"monolithic_ms_per_op"`
	StreamMsPerOp float64 `json:"streamed_ms_per_op"`
	Speedup       float64 `json:"speedup"`
}

// measureStreamBench runs the calibrated monolithic-vs-streamed pair
// at valueSize and returns the machine-readable point.
func measureStreamBench(valueSize, rounds int) (StreamBench, error) {
	mono := core.LBLConfig{ValueSize: valueSize, Mode: core.LBLPointPermute}
	streamed := mono
	streamed.StreamChunkBytes = (mono.TableBytes() + streamChunksTarget - 1) / streamChunksTarget
	link, _, err := calibrateStreamLink(mono)
	if err != nil {
		return StreamBench{}, err
	}
	monoRun, err := runStreamPath(mono, rounds, link)
	if err != nil {
		return StreamBench{}, fmt.Errorf("whole request: %w", err)
	}
	strRun, err := runStreamPath(streamed, rounds, link)
	if err != nil {
		return StreamBench{}, fmt.Errorf("cut request: %w", err)
	}
	return StreamBench{
		ValueSize:     valueSize,
		Chunks:        strRun.frames,
		ChunkBytes:    streamed.StreamChunkBytes,
		BandwidthBps:  link.Bandwidth,
		RTTMillis:     float64(link.RTT) / 1e6,
		MonoMsPerOp:   float64(monoRun.perOp) / 1e6,
		StreamMsPerOp: float64(strRun.perOp) / 1e6,
		Speedup:       float64(monoRun.perOp) / float64(strRun.perOp),
	}, nil
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

	mono := core.LBLConfig{ValueSize: valueSize, Mode: core.LBLPointPermute}
	streamed := mono
	streamed.StreamChunkBytes = (mono.TableBytes() + streamChunksTarget - 1) / streamChunksTarget

	link, build, err := calibrateStreamLink(mono)
	if err != nil {
		return nil, err
	}
	monoRun, err := runStreamPath(mono, rounds, link)
	if err != nil {
		return nil, fmt.Errorf("whole request: %w", err)
	}
	strRun, err := runStreamPath(streamed, rounds, link)
	if err != nil {
		return nil, fmt.Errorf("cut request: %w", err)
	}
	speedup := float64(monoRun.perOp) / float64(strRun.perOp)

	// Framing witnesses: without a budget a request must cross as one
	// frame, with one as ⌈payload/budget⌉ frames (up to group alignment,
	// which RequestFrames accounts for), and no frame may exceed the
	// budget — that bound is what caps per-request buffering on both
	// ends instead of a whole-table frame.
	if monoRun.frames != 1 {
		return nil, fmt.Errorf("harness: unbudgeted request crossed as %d frames per access, want 1", monoRun.frames)
	}
	if want := streamed.RequestFrames(1); strRun.frames != want || want < streamChunksTarget {
		return nil, fmt.Errorf("harness: budgeted request crossed as %d frames per access, want %d (at least %d)",
			strRun.frames, want, streamChunksTarget)
	}
	if strRun.maxFrame > streamed.StreamChunkBytes {
		return nil, fmt.Errorf("harness: request frame %dB exceeds the %dB frame budget",
			strRun.maxFrame, streamed.StreamChunkBytes)
	}

	// Mid-stream fault drill on a small streamed config: the ambiguity
	// machinery is size-independent, and faults on 33 MiB tables would
	// only be slow.
	drill := core.LBLConfig{ValueSize: 512, Mode: core.LBLPointPermute}
	drill.StreamChunkBytes = drill.TableBytes() / 4
	drillAccesses := 60
	if opt.Quick {
		drillAccesses = 30
	}
	resets, failed, err := streamFaultDrill(drill, drillAccesses)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "stream",
		Title: fmt.Sprintf("Requests cut under a frame budget, table build pipelined against the wire (%d KiB values, point-permute, calibrated WAN)",
			valueSize>>10),
		Columns: []string{"path", "frames/op", "ms/op", "speedup", "max-req-frame"},
	}
	t.AddRow("whole", fmt.Sprint(monoRun.frames), fmtMSf(int64(monoRun.perOp)), "1.00x",
		fmtBytes(int64(monoRun.maxFrame)))
	t.AddRow("cut", fmt.Sprint(strRun.frames), fmtMSf(int64(strRun.perOp)),
		fmt.Sprintf("%.2fx", speedup), fmtBytes(int64(strRun.maxFrame)))
	t.Notes = append(t.Notes,
		fmt.Sprintf("link calibrated to this host: table build %s, bandwidth %s/s (one table ≈ one build time on the wire), RTT %s",
			build.Round(time.Microsecond), fmtBytes(link.Bandwidth), link.RTT.Round(time.Microsecond)),
		fmt.Sprintf("cut request frames bounded by the %s frame budget; the whole request is one frame carrying the %s table",
			fmtBytes(int64(streamed.StreamChunkBytes)), fmtBytes(int64(mono.TableBytes()))),
		fmt.Sprintf("fault drill: %d injected connection resets, %d failed accesses, no acknowledged write lost, 0 shape violations",
			resets, failed),
		"netsim meters transmission time without blocking the sender, so build/wire overlap is genuine simulated-clock overlap")
	if speedup < gate {
		return nil, fmt.Errorf("harness: cutting speedup %.2fx below the %.1fx gate (whole %s/op, cut %s/op)",
			speedup, gate, monoRun.perOp.Round(time.Microsecond), strRun.perOp.Round(time.Microsecond))
	}
	return t, nil
}
