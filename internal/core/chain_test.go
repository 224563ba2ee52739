package core

import (
	"bytes"
	"context"
	"errors"
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
// whole: every one of its slots carries the rejection and the group-0
// label of the record the store holds, the record is untouched although the head
// alone would have applied, and the bystander in the same request is
// served.
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
			// Zero fields, then the stored group-0 label where a digest goes.
			held := append(make([]byte, cfg.ValueSize), records["k"][1:1+prf.Size]...)
			for i := 0; i < 3; i++ {
				slot := resp[i*slotLen : (i+1)*slotLen]
				if slot[0] != slotStale || !bytes.Equal(slot[1:], held) {
					t.Errorf("chain slot %d: status %d with body %x, want slotStale and %x", i, slot[0], slot[1:], held)
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

// A verdict scripts what the server side does with one access request:
// whether the real handler runs, and whether its response is lost.
type verdict struct{ skip, lose bool }

// TestLBLAmbiguousChainResolves: a chain of k whose round fails
// ambiguously leaves its key's counter at ct, and the key's next access
// settles it with no round trip of its own. If the chain never ran,
// that access executes at once: one request. If the chain ran — all of
// it, or the access would not be stale — the server answers stale with
// the labels the chain left, the proxy rebases to ct+k, and the access
// goes around once: two requests. A second loss in between changes
// nothing, whichever of the two rounds ran: the labels say where the
// record is.
func TestLBLAmbiguousChainResolves(t *testing.T) {
	const valueSize, k = 8, 4
	cfg := streamCfg(LBLPointPermute, valueSize, 4)
	initial := bytes.Repeat([]byte{7}, valueSize)
	lost, skipped := &verdict{lose: true}, &verdict{skip: true, lose: true}
	for _, tc := range []struct {
		name string
		// chain is the chain's verdict; nil cuts its request after the
		// first frame. then, when set, is the verdict on a read of the key
		// that fails in between.
		chain, then *verdict
		ran         bool
		requests    int    // the next access's
		wantCt      uint64 // after it
	}{
		{"ran, response lost", lost, nil, true, 2, 1 + k + 1},
		{"never ran, response lost", skipped, nil, false, 1, 1 + 1},
		{"cut after the first frame", nil, nil, false, 1, 1 + 1},
		// Lost twice: the read in between is answered stale, and the answer
		// lost; or it runs where the chain did not, and its answer is lost.
		{"ran, then a stale answer lost", lost, lost, true, 2, 1 + k + 1},
		{"cut, then a read ran and its answer lost", nil, lost, false, 2, 1 + 1 + 1},
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
			verdicts := make(chan *verdict, 1)
			var requests, served atomic.Int64
			r.server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
				requests.Add(1)
				defer served.Add(1)
				v := &verdict{}
				select {
				case v = <-verdicts:
				default:
				}
				plan.SetActive(v.lose)
				if v.skip {
					return nil, errors.New("skipped")
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
			// A cut request's handler outlives the proxy's failure: wait for
			// the server to have finished n requests before the next access.
			settled := func(n int64) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); served.Load() < n; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("the server finished %d requests, want %d", served.Load(), n)
					}
				}
			}
			if _, _, err := proxy.Access(OpRead, "k", nil); err != nil { // the chain goes at ct = 1
				t.Fatal(err)
			}

			if tc.chain != nil {
				verdicts <- tc.chain
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
			settled(2) // the first read and the chain
			if tc.then != nil {
				verdicts <- tc.then
				if _, _, err := proxy.Access(OpRead, "k", nil); !transport.Ambiguous(err) {
					t.Fatalf("the read in between: %v, want an ambiguous failure", err)
				}
				settled(3)
			}

			before := requests.Load()
			value, _, err := proxy.Access(OpRead, "k", nil)
			want := initial
			if tc.ran {
				want = written
			}
			if err != nil || !bytes.Equal(value, want) {
				t.Fatalf("read %v (%v), want %v: the chain must have run whole or not at all", value, err, want)
			}
			if n := requests.Load() - before; n != int64(tc.requests) {
				t.Errorf("the read cost %d requests, want %d", n, tc.requests)
			}
			entry := proxy.counters.acquire("k")
			ct := entry.ct
			proxy.counters.release(entry)
			if ct != tc.wantCt {
				t.Errorf("counter %d after the read, want %d", ct, tc.wantCt)
			}
		})
	}
}
