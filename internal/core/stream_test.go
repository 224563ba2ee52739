package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// These tests exercise requests cut under a frame budget
// (LBLConfig.StreamChunkBytes): correctness of multi-frame rounds of
// one key and of many, the framing a budget does and does not produce,
// and ambiguity resolution when a request dies mid-flight. The wire
// view's obliviousness and simulator parity are rows of
// TestLBLRequestParity.

// streamCfg returns an LBL config whose one-key request spans roughly
// nFrames frames.
func streamCfg(mode LBLMode, valueSize, nFrames int) LBLConfig {
	cfg := LBLConfig{ValueSize: valueSize, Mode: mode}
	cfg.StreamChunkBytes = max(cfg.RequestBytesPerAccess()/nFrames, 1)
	return cfg
}

func newLBLStream(t *testing.T, cfg LBLConfig) (*rig, *LBLProxy, *LBLServer) {
	t.Helper()
	r := newRig(t)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy, srv
}

func TestLBLStreamReadWrite(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := streamCfg(mode, 8, 4)
			if cfg.RequestFrames(1) < 4 {
				t.Fatalf("budget %dB does not cut the %dB request", cfg.StreamChunkBytes, cfg.RequestBytesPerAccess())
			}
			r, proxy, _ := newLBLStream(t, cfg)
			loadData(t, r, proxy, map[string][]byte{"k": bytes.Repeat([]byte{7}, 8)})
			current := bytes.Repeat([]byte{7}, 8)
			for i := 0; i < 12; i++ {
				if i%3 == 1 {
					current = bytes.Repeat([]byte{byte(i + 1)}, 8)
					if _, _, err := proxy.Access(OpWrite, "k", current); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
				} else {
					got, _, err := proxy.Access(OpRead, "k", nil)
					if err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
					if !bytes.Equal(got, current) {
						t.Fatalf("access %d: read %v, want %v", i, got, current)
					}
				}
			}
		})
	}
}

// TestLBLRequestFraming pins the one chunking rule from the outside: a
// request a budget cuts is still ONE logical call (the paper's
// one-round claim) spread over RequestFrames frames, none over budget,
// carrying exactly the unbudgeted request's bytes; a request the budget
// already covers, or with no budget at all, is one ordinary frame.
func TestLBLRequestFraming(t *testing.T) {
	base := LBLConfig{ValueSize: 8, Mode: LBLPointPermute}
	for _, tc := range []struct {
		name   string
		budget int
		frames int // 0: whatever RequestFrames says, but more than one
	}{
		{"no budget", 0, 1},
		{"budget covers the request", base.RequestBytesPerAccess(), 1},
		{"budget cuts the request", base.RequestBytesPerAccess() / 4, 0},
		{"budget below one group", 1, base.Groups()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.StreamChunkBytes = tc.budget
			want := cfg.RequestFrames(1)
			if tc.frames != 0 && want != tc.frames || tc.frames == 0 && want < 2 {
				t.Fatalf("RequestFrames(1) = %d, want %d (0 = several)", want, tc.frames)
			}
			r, proxy, _ := newLBLStream(t, cfg)
			loadData(t, r, proxy, map[string][]byte{"k": make([]byte, 8)})
			var frames, total, largest int
			r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
				if msgType == MsgLBLAccess {
					frames, total, largest = frames+1, total+reqLen, max(largest, reqLen)
				}
			})
			before := r.client.Stats().Calls
			_, stats, err := proxy.Access(OpWrite, "k", bytes.Repeat([]byte{1}, 8))
			if err != nil {
				t.Fatal(err)
			}
			if got := r.client.Stats().Calls - before; got != 1 {
				t.Errorf("access made %d logical calls, want 1", got)
			}
			if frames != want {
				t.Errorf("request crossed as %d frames, want %d", frames, want)
			}
			if total != cfg.RequestBytesPerAccess() || stats.PrepBytes != total {
				t.Errorf("frames carried %dB (PrepBytes %d), want the %dB request", total, stats.PrepBytes, cfg.RequestBytesPerAccess())
			}
			if floor := cfg.segHeaderLen() + cfg.groupBytes(); tc.budget > 0 && largest > max(tc.budget, floor) {
				t.Errorf("largest frame %dB exceeds the %dB budget", largest, tc.budget)
			}
			if stats.RespBytes != cfg.ResponseBytesPerAccess() {
				t.Errorf("RespBytes = %d, want %d", stats.RespBytes, cfg.ResponseBytesPerAccess())
			}
		})
	}
}

func TestLBLCutBatch(t *testing.T) {
	cfg := streamCfg(LBLPointPermute, 8, 2)
	const n = 9
	if cfg.RequestFrames(n) < n {
		t.Fatalf("batch of %d is not cut under budget %dB", n, cfg.StreamChunkBytes)
	}
	r, proxy, _ := newLBLStream(t, cfg)
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		data[fmt.Sprintf("k%d", i)] = bytes.Repeat([]byte{byte(i)}, 8)
	}
	loadData(t, r, proxy, data)

	var writes []BatchOp
	for i := 0; i < n; i++ {
		writes = append(writes, BatchOp{Op: OpWrite, Key: fmt.Sprintf("k%d", i), Value: bytes.Repeat([]byte{byte(0x40 + i)}, 8)})
	}
	if _, _, err := proxy.AccessBatch(writes); err != nil {
		t.Fatal(err)
	}
	var reads []BatchOp
	for i := 0; i < n; i++ {
		reads = append(reads, BatchOp{Op: OpRead, Key: fmt.Sprintf("k%d", i)})
	}
	values, _, err := proxy.AccessBatch(reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if want := bytes.Repeat([]byte{byte(0x40 + i)}, 8); !bytes.Equal(v, want) {
			t.Errorf("batch read %d = %v, want %v", i, v, want)
		}
	}
}

// newFaultStreamRig builds a streamed LBL deployment over a faulty
// link. The plan starts deactivated so setup traffic is clean.
func newFaultStreamRig(t *testing.T, cfg LBLConfig, plan *netsim.FaultPlan) (*rig, *LBLProxy) {
	t.Helper()
	plan.SetActive(false)
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Link{Fault: plan})
	go r.server.Serve(l)
	t.Cleanup(func() { r.server.Close() })
	RegisterLoader(r.server, r.store)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	c, err := transport.Dial(l.Dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r.client = c
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), c)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy
}

// TestLBLStreamBlackholedResponse kills the response of a multi-frame
// write after the server executed it. The access must fail ambiguous,
// and the next access settles it: answered stale with the labels the
// write left, it rebases and reads the write the server applied.
func TestLBLStreamBlackholedResponse(t *testing.T) {
	cfg := streamCfg(LBLPointPermute, 8, 4)
	plan := &netsim.FaultPlan{BlackholeProb: 1, MaxFaults: 1}
	r, proxy := newFaultStreamRig(t, cfg, plan)
	loadData(t, r, proxy, map[string][]byte{"k": make([]byte, 8)})

	plan.SetActive(true)
	want := bytes.Repeat([]byte{0xAB}, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	_, _, err := proxy.AccessContext(ctx, OpWrite, "k", want)
	cancel()
	if err == nil {
		t.Fatal("blackholed streamed write succeeded")
	}
	if !transport.Ambiguous(err) {
		t.Fatalf("blackholed streamed write failed definitely (%v); want ambiguous", err)
	}
	plan.SetActive(false)

	got, _, err := proxy.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatalf("read after ambiguous streamed write: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("server-executed streamed write lost: read %v, want %v", got, want)
	}
	if n := plan.Stats().Blackholes; n != 1 {
		t.Fatalf("fault plan injected %d blackholes, want 1", n)
	}
}

// TestLBLStreamResetStorm runs a sequential streamed workload through
// random connection resets, tracking the set of values each failed
// write could have left behind, with shape auditors armed: no access
// may return a value outside the possible set, no acked write may be
// lost, and the mid-stream deaths must not change any frame's shape.
func TestLBLStreamResetStorm(t *testing.T) {
	cfg := streamCfg(LBLPointPermute, 8, 4)
	plan := &netsim.FaultPlan{Seed: 7, ResetProb: 0.04, MaxFaults: 12}
	r, proxy := newFaultStreamRig(t, cfg, plan)
	reg := obs.NewRegistry()
	serverAud := obs.NewShapeAuditor(reg, "server")
	proxyAud := obs.NewShapeAuditor(reg, "proxy")
	r.server.AuditShape(serverAud, ShapeClassify)
	r.client.AuditShape(proxyAud, ShapeClassify)
	initial := make([]byte, 8)
	loadData(t, r, proxy, map[string][]byte{"k": initial})

	plan.SetActive(true)
	possible := map[string]bool{string(initial): true}
	failures := 0
	for i := 0; i < 60; i++ {
		if i%3 == 2 {
			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil {
				failures++
				continue
			}
			if !possible[string(got)] {
				t.Fatalf("access %d: read %v not among possible values", i, got)
			}
			possible = map[string]bool{string(got): true}
			continue
		}
		v := bytes.Repeat([]byte{byte(i + 1)}, 8)
		if _, _, err := proxy.Access(OpWrite, "k", v); err != nil {
			failures++
			if transport.Ambiguous(err) {
				possible[string(v)] = true // may or may not have applied
			}
			continue
		}
		possible = map[string]bool{string(v): true}
	}
	plan.SetActive(false)

	// The storm's last reset may have left a dead pooled connection,
	// restored by the background redial loop.
	var got []byte
	for attempt := 0; ; attempt++ {
		var err error
		got, _, err = proxy.Access(OpRead, "k", nil)
		if err == nil {
			break
		}
		if attempt == 40 {
			t.Fatalf("final read: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !possible[string(got)] {
		t.Fatalf("final value %v not among %d possible values — an acked write was lost or a ghost write applied", got, len(possible))
	}
	if vp, vs := proxyAud.Violations(), serverAud.Violations(); vp != 0 || vs != 0 {
		t.Fatalf("shape auditor under faults: proxy=%d server=%d violations, want 0/0", vp, vs)
	}
	if plan.Stats().Resets == 0 {
		t.Skip("fault plan injected no resets; storm did not exercise mid-stream death")
	}
	t.Logf("injected %d resets, %d failed accesses, %d possible final values",
		plan.Stats().Resets, failures, len(possible))
}
