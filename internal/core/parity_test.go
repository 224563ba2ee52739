package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/obs"
)

// TestLBLRequestParity is the one statement of LBL-ORTOA's transcript
// property (§2.3, §5, §7): for every variant, key count, and frame
// budget, traced or not, a round of reads, a round of writes, and the
// ROR-RW simulator put the same frames on the wire — same count, same
// per-frame lengths, same segment headers — and answer with the same
// response, while the live shape auditors, which hold every request
// frame (continuations included) and every response strict, see no
// violation. The repeated row names keys more than once: the proxy folds
// a key's accesses into one segment, so the wire carries each key once, as
// the simulator — which refuses a key named twice — emits it. The desync
// rows run the same comparison through a recovery episode (reconcile.go)
// in each direction: a proxy behind the server rebases and goes around
// once, and a proxy ahead of a rolled-back server is refused once and
// then served. The server answers stale identically for both op types,
// so a recovery triggered by reads must be indistinguishable from one
// triggered by writes. Two value sizes run every row: a word, and a single
// byte, whose segments hold the fewest groups any mode builds (8 at y = 1,
// 4 at y = 2), so the cuts-segments budget leaves one to three groups per
// frame.
func TestLBLRequestParity(t *testing.T) {
	for _, mode := range allLBLModes() {
		for _, valueSize := range []int{8, 1} {
			base := LBLConfig{ValueSize: valueSize, Mode: mode}
			seg := base.RequestBytesPerAccess()
			for _, keys := range [][]string{parityKeys(1), parityKeys(3), parityKeys(64),
				{"key-00", "key-00", "key-00", "key-01", "key-02", "key-02"}} {
				n := len(keys)
				repeated := ""
				if keys[0] == keys[1%n] && n > 1 {
					repeated = "/repeated"
				}
				for _, budget := range []struct {
					name  string
					bytes int
				}{
					{"none", 0},
					{"covers", n * seg},
					{"cuts-segments", seg * 2 / 5},
					{"cuts-between", seg * 5 / 2},
				} {
					cfg := base
					cfg.StreamChunkBytes = budget.bytes
					for _, traced := range []bool{false, true} {
						for _, desync := range []string{"none", "proxy-behind", "server-behind"} {
							name := fmt.Sprintf("%v/value=%dB/n=%d%s/budget=%s/traced=%v/desync=%s",
								mode, valueSize, n, repeated, budget.name, traced, desync)
							t.Run(name, func(t *testing.T) { requestParity(t, cfg, keys, traced, desync) })
						}
					}
				}
			}
		}
	}
}

func parityKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	return keys
}

// builtFrames cuts and seals the request for specs exactly as exchange
// does, without sending it, and reports where segment headers sit.
func builtFrames(t testing.TB, p *LBLProxy, specs []tableSpec) (frames [][]byte, headers [][]int) {
	t.Helper()
	var runs []run
	for cut := (frameCutter{cfg: p.cfg, n: len(specs)}); !cut.done(); {
		runs = cut.next(runs[:0])
		frame := make([]byte, p.cfg.frameBytes(runs))
		if err := p.buildFrame(frame, runs, specs); err != nil {
			t.Fatal(err)
		}
		var at []int
		off := 0
		for _, r := range runs {
			if r.g0 == 0 {
				at = append(at, off)
				off += p.cfg.segPrefixLen()
			}
			off += (r.g1 - r.g0) * p.cfg.groupBytes()
		}
		frames, headers = append(frames, frame), append(headers, at)
	}
	return frames, headers
}

func requestParity(t *testing.T, cfg LBLConfig, keys []string, traced bool, desync string) {
	// The keys the wire carries: each once, however often the batch names
	// it (foldKey).
	var wire []string
	named := map[string]bool{}
	for _, k := range keys {
		if !named[k] {
			named[k] = true
			wire = append(wire, k)
		}
	}
	n := len(wire)
	value := bytes.Repeat([]byte{0x5A}, cfg.ValueSize)

	// Off the wire: what the builder seals for reads, for writes, and
	// what the simulator emits.
	offline, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		t.Fatal(err)
	}
	readSpecs, writeSpecs := make([]tableSpec, n), make([]tableSpec, n)
	for i, k := range wire {
		readSpecs[i] = offline.spec(OpRead, k, nil, 3)
		writeSpecs[i] = offline.spec(OpWrite, k, value, 3)
	}
	reads, headers := builtFrames(t, offline, readSpecs)
	writes, _ := builtFrames(t, offline, writeSpecs)
	sim, err := NewLBLSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) < len(keys) {
		if _, err := sim.Simulate(keys...); err == nil {
			t.Fatal("the simulator emitted a round naming a key twice")
		}
	}
	simulated, err := sim.Simulate(wire...)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != cfg.RequestFrames(n) || len(writes) != len(reads) || len(simulated) != len(reads) {
		t.Fatalf("frame counts: reads %d, writes %d, simulated %d, RequestFrames %d",
			len(reads), len(writes), len(simulated), cfg.RequestFrames(n))
	}
	total := 0
	for i := range reads {
		if len(writes[i]) != len(reads[i]) || len(simulated[i]) != len(reads[i]) {
			t.Fatalf("frame %d: read %dB, write %dB, simulated %dB", i, len(reads[i]), len(writes[i]), len(simulated[i]))
		}
		total += len(reads[i])
		for _, at := range headers[i] {
			// Everything in a segment header past the encoded key — the
			// claim, mode, and geometry — is public and must agree byte
			// for byte.
			a, b := at+prf.Size, at+cfg.segHeaderLen()
			if !bytes.Equal(reads[i][a:b], writes[i][a:b]) || !bytes.Equal(reads[i][a:b], simulated[i][a:b]) {
				t.Fatalf("frame %d: segment header at %d differs: read % x, write % x, simulated % x",
					i, at, reads[i][a:b], writes[i][a:b], simulated[i][a:b])
			}
		}
		if bytes.Equal(reads[i], writes[i]) {
			t.Fatalf("frame %d: read and write frames identical — randomness missing", i)
		}
	}
	if total != n*cfg.RequestBytesPerAccess() {
		t.Fatalf("frames carry %dB, want n segments = %dB", total, n*cfg.RequestBytesPerAccess())
	}
	again, err := sim.Simulate(wire...)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(again[0], simulated[0]) {
		t.Fatal("simulator repeated a frame verbatim")
	}

	// On the wire: the adversary's view of a round of reads and of a
	// round of writes, under auditors shared by both runs so a read-run
	// frame and a write-run frame of one class are held to one length.
	reg := obs.NewRegistry()
	serverAud := obs.NewShapeAuditor(reg, "server")
	proxyAud := obs.NewShapeAuditor(reg, "proxy")
	observe := func(op Op, traced bool) []exchange {
		r := newRig(t)
		NewLBLServer(r.store).Register(r.server)
		r.server.AuditShape(serverAud, ShapeClassify)
		r.client.AuditShape(proxyAud, ShapeClassify)
		proxy, err := NewLBLProxy(cfg, prf.NewRandom(), r.client)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			r.server.SetTracer(reg.Tracer("server", 1<<12))
			r.client.SetTracer(reg.Tracer("proxy", 1<<12))
			proxy.TraceWith(reg.Tracer("proxy", 1<<12))
		}
		data := map[string][]byte{}
		batch := make([]BatchOp, len(keys))
		for i, k := range keys {
			data[k] = make([]byte, cfg.ValueSize)
			batch[i] = BatchOp{Op: op, Key: k}
			if op == OpWrite {
				batch[i].Value = value
			}
		}
		loadData(t, r, proxy, data)
		if desync != "none" {
			// Two rounds run that one side then forgets: every key is two
			// counters off. The proxy forgets its counters, the server
			// "crashes" back to its loaded records.
			old := map[string][]byte{}
			for _, k := range wire {
				old[k] = serverRecord(t, r, proxy, k)
			}
			for i := 0; i < 2; i++ {
				if _, err := batchValues(proxy.AccessBatch(context.Background(), batch)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range wire {
				if desync == "proxy-behind" {
					e := proxy.counters.acquire(k)
					e.ct = 0
					proxy.counters.release(e)
				} else {
					regressServer(t, r, proxy, k, old[k])
				}
			}
		}
		var mu sync.Mutex
		var seen []exchange
		r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
			mu.Lock()
			seen = append(seen, exchange{msgType, reqLen, respLen})
			mu.Unlock()
		})
		access := func() error {
			if len(keys) == 1 {
				_, err := proxy.AccessContext(context.Background(), op, keys[0], batch[0].Value)
				return err
			}
			_, err := batchValues(proxy.AccessBatch(context.Background(), batch))
			return err
		}
		if desync == "server-behind" {
			// The rollback is refused once, for every key.
			if err := access(); !errors.Is(err, errRolledBack) {
				t.Fatalf("round of %v against a rolled-back server: %v, want errRolledBack", op, err)
			}
		}
		if err := access(); err != nil {
			t.Fatalf("round of %v: %v", op, err)
		}
		mu.Lock()
		defer mu.Unlock()
		sortExchanges(seen)
		return seen
	}
	// Tracing must not show either: the traced row traces the reads and
	// not the writes.
	seenReads := observe(OpRead, traced)
	seenWrites := observe(OpWrite, false)
	assertIdenticalViews(t, seenReads, seenWrites)
	if vp, vs := proxyAud.Violations(), serverAud.Violations(); vp != 0 || vs != 0 {
		t.Fatalf("shape auditors: proxy=%d server=%d violations, want 0/0", vp, vs)
	}
	// The wire carries exactly the simulated frames, each time answered by
	// one response of n slots: once, and once more for a recovery — the
	// stale round before the rebase, or the refused one before the
	// rollback's rebase — and nothing else.
	rounds := 1
	if desync != "none" {
		rounds = 2
	}
	var want, got []int
	for range rounds {
		for _, f := range simulated {
			want = append(want, len(f))
		}
	}
	responses := 0
	for _, e := range seenReads {
		got = append(got, e.reqLen)
		if e.respLen > 0 {
			responses++
			if e.respLen != n*cfg.ResponseBytesPerAccess() {
				t.Errorf("response is %dB, want %d slots of %dB", e.respLen, n, cfg.ResponseBytesPerAccess())
			}
		}
	}
	sort.Ints(want)
	sort.Ints(got)
	if fmt.Sprint(got) != fmt.Sprint(want) || responses != rounds {
		t.Fatalf("wire frames %v with %d responses, want the simulated %v with %d", got, responses, want, rounds)
	}
	for _, class := range [][]byte{reads[0], simulated[0]} {
		if _, strictReq, strictResp := ShapeClassify(MsgLBLAccess, class); !strictReq || !strictResp {
			t.Fatalf("head frame classified strictReq=%v strictResp=%v, want both strict", strictReq, strictResp)
		}
	}
	if traced {
		// Tracing was genuinely on: both processes recorded spans, joined
		// into cross-process trees by ids that crossed the wire.
		serverByTrace := map[uint64]bool{}
		have := map[string]bool{}
		for _, rec := range reg.TraceRecords() {
			have[rec.Name] = true
			if rec.Process == "server" {
				serverByTrace[rec.TraceID] = true
			}
		}
		for _, want := range []string{"lbl_access", "counter_acquire", "table_build", "rpc",
			"label_recover", "server_handle", "server_decrypt"} {
			if !have[want] {
				t.Fatalf("no %q span recorded; tracing was not actually exercised", want)
			}
		}
		joined := false
		for _, rec := range reg.TraceRecords() {
			joined = joined || rec.Process == "proxy" && rec.Name == "lbl_access" && serverByTrace[rec.TraceID]
		}
		if !joined {
			t.Fatal("no proxy trace id reached the server: span context did not propagate")
		}
	}
}
