package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// These tests pin the chain — a round's accesses to one key, sent as
// consecutive segments, applied in order, installed whole or not at all
// (keyChain in lbl.go, install in lblserver.go). That a chain's
// transcript is operation-oblivious is a row of TestLBLRequestParity;
// the recovery ladder's chain rows are in ladder_test.go.

// chainOps is the chain the tests send: read, write, read on "k", and a
// bystander.
func chainOps(valueSize int, tag byte) (ops []BatchOp, written []byte) {
	written = bytes.Repeat([]byte{tag}, valueSize)
	return []BatchOp{
		{Op: OpRead, Key: "k"},
		{Op: OpWrite, Key: "k", Value: written},
		{Op: OpRead, Key: "k"},
		{Op: OpRead, Key: "other"},
	}, written
}

// TestLBLChainCutByFrameBudget cuts a chain's request between its
// segments and inside them: a member whose predecessor's groups are
// still arriving is decrypted behind it, frame after frame, and the
// chain is still one logical call.
func TestLBLChainCutByFrameBudget(t *testing.T) {
	const valueSize = 8
	for _, mode := range []LBLMode{LBLSpaceOpt, LBLPointPermute} {
		seg := LBLConfig{ValueSize: valueSize, Mode: mode}.RequestBytesPerAccess()
		for _, budget := range []int{seg * 2 / 5, seg, seg * 5 / 2} {
			t.Run(fmt.Sprintf("%v/budget=%d", mode, budget), func(t *testing.T) {
				cfg := LBLConfig{ValueSize: valueSize, Mode: mode, StreamChunkBytes: budget}
				r, proxy, _ := newLBLStream(t, cfg)
				initial := bytes.Repeat([]byte{7}, valueSize)
				loadData(t, r, proxy, map[string][]byte{"k": initial, "other": bytes.Repeat([]byte{9}, valueSize)})
				for lap := byte(1); lap <= 3; lap++ {
					ops, written := chainOps(valueSize, 0x40+lap)
					before := r.client.Stats().Calls
					values, _, err := proxy.AccessBatch(ops)
					if err != nil {
						t.Fatalf("lap %d: %v", lap, err)
					}
					if got := r.client.Stats().Calls - before; got != 1 {
						t.Errorf("lap %d: the chain made %d logical calls, want 1", lap, got)
					}
					for i, want := range [][]byte{initial, written, written, bytes.Repeat([]byte{9}, valueSize)} {
						if !bytes.Equal(values[i], want) {
							t.Errorf("lap %d op %d = %v, want %v", lap, i, values[i], want)
						}
					}
					initial = written
				}
			})
		}
	}
}

// TestLBLChainTamperedMemberRejectedWhole hands the server a chain whose
// second member is keyed at the wrong counter — what a corrupted or
// forged table looks like to trial decryption. The chain is rejected
// whole: every one of its slots carries the rejection and no label, the
// record is untouched although the head alone would have applied, and
// the bystander in the same request is served.
func TestLBLChainTamperedMemberRejectedWhole(t *testing.T) {
	for _, mode := range []LBLMode{LBLSpaceOpt, LBLPointPermute} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := LBLConfig{ValueSize: 4, Mode: mode}
			proxy, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
			if err != nil {
				t.Fatal(err)
			}
			store := kvstore.New()
			records := map[string][]byte{}
			for _, k := range []string{"k", "other"} {
				ek, rec, err := proxy.BuildRecord(k, []byte{1, 2, 3, 4})
				if err != nil {
					t.Fatal(err)
				}
				store.Put(ek, rec) //nolint:errcheck // no WAL attached
				records[k] = rec
			}
			request := func(second uint64) []byte {
				specs := []tableSpec{
					proxy.spec(OpRead, "k", nil, 0),
					proxy.spec(OpWrite, "k", []byte{5, 5, 5, 5}, second),
					proxy.spec(OpRead, "k", nil, 2),
					proxy.spec(OpRead, "other", nil, 0),
				}
				frames, _ := builtFrames(t, proxy, specs)
				return frames[0]
			}
			stored := func(key string) []byte {
				ek := proxy.prf.EncodeKey(key)
				rec, err := store.Get(string(ek[:]))
				if err != nil {
					t.Fatal(err)
				}
				return rec
			}
			srv := NewLBLServer(store)
			slotLen := cfg.ResponseBytesPerAccess()

			resp, err := srv.access(context.Background(), request(7), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				slot := resp[i*slotLen : (i+1)*slotLen]
				if slot[0] != slotStale || !bytes.Equal(slot[1:], make([]byte, slotLen-1)) {
					t.Errorf("chain slot %d: status %d with labels %x, want slotStale and none", i, slot[0], slot[1:])
				}
			}
			if resp[3*slotLen] != slotOK {
				t.Errorf("bystander slot status %d, want slotOK", resp[3*slotLen])
			}
			if !bytes.Equal(stored("k"), records["k"]) {
				t.Error("the rejected chain changed the record")
			}
			if bytes.Equal(stored("other"), records["other"]) {
				t.Error("the bystander's record did not advance")
			}
			if got := srv.Ops(); got != 1 {
				t.Errorf("server counted %d accesses, want the bystander's 1", got)
			}

			// The same chain, rightly keyed, applies whole.
			resp, err = srv.access(context.Background(), request(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if resp[i*slotLen] != slotOK {
					t.Errorf("well-formed chain slot %d: status %d, want slotOK", i, resp[i*slotLen])
				}
			}
			if resp[3*slotLen] != slotStale {
				t.Errorf("bystander sent twice at counter 0: status %d, want slotStale", resp[3*slotLen])
			}
		})
	}
}

// TestLBLChainJournalsOneRecord: a durable server writes one WAL record
// per chain — the compare-and-swap from the head's snapshot to the
// tail's record — so a crash can never leave a chain half applied.
func TestLBLChainJournalsOneRecord(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {1, 1, 1, 1}, "other": {9, 9, 9, 9}})
	wal := filepath.Join(t.TempDir(), "server.wal")
	if err := r.store.AttachWALOptions(wal, kvstore.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	ops, written := chainOps(4, 0x5A)
	if _, _, err := proxy.AccessBatch(ops); err != nil {
		t.Fatal(err)
	}
	want := serverRecord(t, r, proxy, "k")
	if err := r.store.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	replayed := kvstore.New()
	if err := replayed.AttachWALOptions(wal, kvstore.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer replayed.DetachWAL() //nolint:errcheck // read only
	if got := replayed.WALReplayed(); got != 2 {
		t.Errorf("the WAL holds %d records, want 2: one for the chain of three, one for the bystander", got)
	}
	ek := proxy.prf.EncodeKey("k")
	if got, err := replayed.Get(string(ek[:])); err != nil || !bytes.Equal(got, want) {
		t.Errorf("replayed record differs from the one the chain left (err %v)", err)
	}
	if got, _, err := proxy.Access(OpRead, "k", nil); err != nil || !bytes.Equal(got, written) {
		t.Errorf("read after the chain = %v, %v", got, err)
	}
}

// A cutter tears down a proxy's connection in the middle of a request:
// once armed with a byte allowance, writes pass until it is spent, and
// the next write closes the connection instead. With the allowance at
// one frame, a request of several frames dies after its first — the
// transport has sent something, so the failure is ambiguous, and the
// server has not seen the request's end, so nothing was installed.
type cutter struct {
	armed atomic.Bool
	allow atomic.Int64
}

func (c *cutter) arm(allow int) {
	c.allow.Store(int64(allow))
	c.armed.Store(true)
}

type cutConn struct {
	net.Conn
	cut *cutter
}

func (c cutConn) Write(p []byte) (int, error) {
	if c.cut.armed.Load() {
		if c.cut.allow.Load() <= 0 {
			c.cut.armed.Store(false)
			c.Conn.Close()
			return 0, io.ErrClosedPipe
		}
		c.cut.allow.Add(-int64(len(p)))
	}
	return c.Conn.Write(p)
}

// TestLBLAmbiguousChainResolves: a chain of k whose round fails
// ambiguously parks as one outcome, and the next access's probe at the
// parked counter ct settles it to exactly one of two counters. When the
// response was blackholed the chain ran — all of it — so the probe is
// rejected stale and the counter is ct+k; when the connection was reset
// mid-request the chain never ran — none of it — so the probe executes
// and the counter is ct+1. Probes whose own responses are lost on the way
// add the counters they may have left behind and nothing else: the entry
// still settles on the server's counter, with the chain whole or absent.
func TestLBLAmbiguousChainResolves(t *testing.T) {
	const valueSize, k = 8, 4
	cfg := streamCfg(LBLPointPermute, valueSize, 4)
	initial := bytes.Repeat([]byte{7}, valueSize)
	for _, tc := range []struct {
		name string
		ran  bool
		// lost scripts the settling attempts that fail before the one that
		// is left alone: for each, whether the response to each probe it
		// sends is blackholed.
		lost   [][]bool
		wantCt uint64
	}{
		{"blackholed response", true, nil, 1 + k},
		{"reset mid-request", false, nil, 1 + 1},
		// The lost probe ran alone: stale at ct is its doing, and the probe
		// at ct+1 executes.
		{"reset mid-request, a probe's response lost", false, [][]bool{{true}}, 1 + 2},
		// The lost probe was rejected: stale at ct and at ct+1 is the chain.
		{"blackholed response, a probe's response lost", true, [][]bool{{true}}, 1 + k},
		// The probe at ct+1 is lost in turn, having run: one more step up.
		{"reset mid-request, the probes at ct and ct+1 lost", false, [][]bool{{true}, {false, true}}, 1 + 3},
		{"blackholed response, the probes at ct and ct+1 lost", true, [][]bool{{true}, {false, true}}, 1 + k},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &netsim.FaultPlan{BlackholeProb: 1}
			plan.SetActive(false)
			r := &rig{store: kvstore.New(), server: transport.NewServer()}
			l := netsim.Listen(netsim.Link{Fault: plan})
			go r.server.Serve(l) //nolint:errcheck // returns on Close
			t.Cleanup(func() { r.server.Close() })
			RegisterLoader(r.server, r.store)
			srv := NewLBLServer(r.store)
			srv.Register(r.server)
			// Whether an access request's response is lost is the next
			// verdict queued here; with none queued it is delivered.
			lose := make(chan bool, 4)
			var served atomic.Int64
			r.server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
				defer served.Add(1)
				select {
				case v := <-lose:
					plan.SetActive(v)
				default:
					plan.SetActive(false)
				}
				return srv.handleAccess(ctx, payload)
			})
			var cut cutter
			var err error
			r.client, err = transport.DialOptions(func() (net.Conn, error) {
				c, err := l.Dial()
				return cutConn{c, &cut}, err
			}, transport.Options{PoolSize: 2, CallTimeout: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.client.Close() })
			proxy, err := NewLBLProxy(cfg, prf.NewRandom(), r.client)
			if err != nil {
				t.Fatal(err)
			}
			loadData(t, r, proxy, map[string][]byte{"k": initial, "other": initial})
			if _, _, err := proxy.Access(OpRead, "k", nil); err != nil { // the chain parks at ct = 1
				t.Fatal(err)
			}

			if tc.ran {
				lose <- true
			} else {
				cut.arm(cfg.StreamChunkBytes)
			}
			ops, written := chainOps(valueSize, 0xAB)
			ops = append(ops, BatchOp{Op: OpRead, Key: "k"})
			results, _ := proxy.AccessBatchResults(context.Background(), ops)
			for i, res := range results {
				if !transport.Ambiguous(res.Err) {
					t.Fatalf("op %d: %v, want an ambiguous failure", i, res.Err)
				}
			}
			// A cut request's handler outlives the proxy's failure; the
			// verdicts below are for the requests after it.
			for deadline := time.Now().Add(5 * time.Second); served.Load() < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the server finished %d requests, want the first read and the chain", served.Load())
				}
			}
			entry := proxy.counters.acquire("k") // held while the test settles it by hand
			if entry.ct != 1 || entry.pending != k {
				t.Fatalf("after the failure the entry is at %d with %d parked, want 1 and the chain's %d", entry.ct, entry.pending, k)
			}

			// The settling itself, as the key's next accesses would run it.
			for i, verdicts := range tc.lost {
				for _, v := range verdicts {
					lose <- v
				}
				if err := proxy.resolvePending("k", entry); !transport.Ambiguous(err) {
					t.Fatalf("settling attempt %d with a probe's response lost: %v, want an ambiguous failure", i, err)
				}
				if entry.pending == 0 || len(lose) != 0 {
					t.Fatalf("after attempt %d: %d parked, %d scripted probes unsent", i, entry.pending, len(lose))
				}
			}
			for attempt := 0; ; attempt++ { // the pool redials a cut connection in the background
				if err = proxy.resolvePending("k", entry); err == nil || attempt == 40 {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("settling the parked chain: %v", err)
			}
			if entry.ct != tc.wantCt || entry.pending != 0 || entry.probed {
				t.Errorf("the probes settled the counter at %d with %d parked (probed %v), want %d and 0", entry.ct, entry.pending, entry.probed, tc.wantCt)
			}
			want := initial
			if tc.ran {
				want = written
			}
			proxy.counters.release(entry)
			// ReconcileScan is 0: a counter off the server's fails this read.
			var value []byte
			for attempt := 0; attempt < 40; attempt++ {
				if value, _, err = proxy.Access(OpRead, "k", nil); err == nil {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil || !bytes.Equal(value, want) {
				t.Errorf("read %v (%v), want %v: the chain must have run whole or not at all", value, err, want)
			}
		})
	}
}
