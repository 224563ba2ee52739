package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// These tests pin the fold — a round's accesses to one key sent as one
// access (foldKey in lbl.go) — and the rule it makes of the exchange: a
// request names each key at most once. That a fold's transcript is
// operation-oblivious is a row of TestLBLRequestParity and of
// TestObliviousnessHeldChain; the recovery ladder's fold rows are in
// ladder_test.go.

// foldOps is the batch the tests send: read, write, read on "k", and a
// bystander.
func foldOps(valueSize int, tag byte) (ops []BatchOp, written []byte) {
	written = bytes.Repeat([]byte{tag}, valueSize)
	return []BatchOp{
		{Op: OpRead, Key: "k"},
		{Op: OpWrite, Key: "k", Value: written},
		{Op: OpRead, Key: "k"},
		{Op: OpRead, Key: "other"},
	}, written
}

// TestHeldAccessesCoalesce runs sequences of accesses held behind a key's
// round in flight and checks, for each, what folding them promises: every
// member's value or error, one segment on the wire for every lap the fold
// takes, one install and so one counter step and one WAL record where the
// fold applies, and a linearizable history. The rows: all reads, all
// writes, reads and writes interleaved, a held write whose deadline passes
// before it leaves (shed, so the reads behind it do not see it), a fold
// answered stale past the recovery allowance because a peer keeps moving
// the record, and a fold whose response is dropped after it ran
// (ambiguous, settled by the key's next access).
func TestHeldAccessesCoalesce(t *testing.T) {
	const key = "key-00"
	initial := make([]byte, holdValueSize)
	for _, tc := range []struct {
		name   string
		held   []Op
		expire int    // the held access whose deadline passes before it leaves, or -1
		fault  string // what befalls the fold's round: "", "stale" or "dropped"
	}{
		{"reads", []Op{OpRead, OpRead, OpRead}, -1, ""},
		{"writes", []Op{OpWrite, OpWrite, OpWrite}, -1, ""},
		{"R W R W R", []Op{OpRead, OpWrite, OpRead, OpWrite, OpRead}, -1, ""},
		{"a write expired before it left", []Op{OpRead, OpWrite, OpRead, OpWrite}, 1, ""},
		{"stale past the allowance", []Op{OpRead, OpWrite, OpRead}, -1, "stale"},
		{"response dropped", []Op{OpRead, OpWrite, OpRead}, -1, "dropped"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := LBLConfig{ValueSize: holdValueSize, Mode: LBLPointPermute}
			f := prf.NewRandom()
			store := kvstore.New()
			reg := obs.NewRegistry()
			store.Instrument(reg)
			if err := store.AttachWALOptions(filepath.Join(t.TempDir(), "server.wal"), kvstore.WALOptions{}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.DetachWAL() }) //nolint:errcheck // the test is over

			// The peer advances the record in the stale row, through a server
			// of its own on the same store; it also loads the key.
			peer := &rig{store: store, server: transport.NewServer()}
			lp := netsim.Listen(netsim.Loopback)
			go peer.server.Serve(lp) //nolint:errcheck // returns on Close
			t.Cleanup(func() { peer.server.Close() })
			RegisterLoader(peer.server, store)
			NewLBLServer(store).Register(peer.server)
			var err error
			if peer.client, err = transport.Dial(lp.Dial, 1); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { peer.client.Close() })
			b, err := NewLBLProxy(cfg, f, peer.client)
			if err != nil {
				t.Fatal(err)
			}
			loadData(t, peer, b, map[string][]byte{key: initial})

			// The proxy under test reaches its server through a gate, over a
			// link that drops responses while the plan is active.
			plan := &netsim.FaultPlan{BlackholeProb: 1}
			plan.SetActive(false)
			server := transport.NewServer()
			l := netsim.Listen(netsim.Link{Fault: plan})
			go server.Serve(l) //nolint:errcheck // returns on Close
			t.Cleanup(func() { server.Close() })
			srv := NewLBLServer(store)
			client, err := transport.DialOptions(l.Dial, transport.Options{PoolSize: 2, CallTimeout: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			a, err := NewLBLProxy(cfg, f, client)
			if err != nil {
				t.Fatal(err)
			}
			a.Instrument(obs.NewRegistry())

			var (
				clock      atomic.Int64
				mu         sync.Mutex
				history    []registerOp
				segments   []int // per request the proxy under test sent
				peerWrites int
			)
			gate, entered := make(chan struct{}), make(chan struct{}, 16)
			per := cfg.RequestBytesPerAccess()
			server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
				mu.Lock()
				segments = append(segments, len(payload)/per)
				n := len(segments)
				mu.Unlock()
				entered <- struct{}{}
				<-gate
				// Request 1 is the round in flight; the fold's laps follow.
				lap := n - 1
				plan.SetActive(tc.fault == "dropped" && lap == 1)
				if tc.fault == "stale" && lap >= 1 && lap <= 1+recoveryAllowance {
					// The peer moves the record past the counter this lap is
					// keyed at, every lap: each rebase is one step behind.
					v := []byte{byte(200 + lap), 0, 0, 0}
					op := registerOp{write: true, value: string(v), call: clock.Add(1)}
					if _, err := b.AccessContext(context.Background(), OpWrite, key, v); err != nil {
						t.Errorf("peer write: %v", err)
					}
					op.ret = clock.Add(1)
					mu.Lock()
					history, peerWrites = append(history, op), peerWrites+1
					mu.Unlock()
				}
				return srv.handleAccess(ctx, payload)
			})
			counter := func() uint64 {
				e := a.counters.acquire(key)
				defer a.counters.release(e)
				return e.ct
			}
			recordCounter := func() uint64 {
				ek := a.prf.EncodeKey(key)
				rec, err := store.Get(string(ek[:]))
				if err != nil {
					t.Fatal(err)
				}
				_, verifier := cfg.recordParts(rec)
				ct, _ := a.vk.open(verifier, ek)
				return ct
			}
			installs0, wal0 := srv.Ops(), reg.Value("ortoa_kvstore_wal_appends_total")

			type member struct {
				*answer
				op Op
				v  []byte
				at int64 // call tick
			}
			var wg sync.WaitGroup
			launch := func(ctx context.Context, op Op, v []byte) member {
				m := member{op: op, v: v, at: clock.Add(1)}
				m.answer = start(t, ctx, a, &wg, false, op, key, v)
				return m
			}
			head := launch(context.Background(), OpRead, nil)
			<-entered // the round in flight: what follows is held
			members := make([]member, len(tc.held))
			for i, op := range tc.held {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var v []byte
				if op == OpWrite {
					v = []byte{byte(10 + i), 0, 0, 0}
				}
				members[i] = launch(ctx, op, v)
				if i == tc.expire {
					cancel()
				}
			}
			close(gate)
			wg.Wait()
			ret := clock.Add(1)

			record := func(m member, returned int64) {
				history = append(history, registerOp{write: m.op == OpWrite, value: string(m.value), call: m.at, ret: returned})
			}
			if head.err != nil || !bytes.Equal(head.value, initial) {
				t.Fatalf("the round in flight read %v, %v", head.value, head.err)
			}
			record(head, ret)
			cur := initial
			for i, m := range members {
				switch {
				case i == tc.expire:
					if !IsDeadlineExpired(m.err) {
						t.Errorf("member %d: %v, want deadline-expired", i, m.err)
					}
				case tc.fault == "stale":
					if !IsStaleRound(m.err) || transport.Ambiguous(m.err) {
						t.Errorf("member %d: %v, want the definite stale rejection", i, m.err)
					}
				case tc.fault == "dropped":
					if !transport.Ambiguous(m.err) {
						t.Errorf("member %d: %v, want an ambiguous failure", i, m.err)
					}
					if m.op == OpWrite {
						// A write whose outcome is unknown may take effect any time
						// after its call: it joins the history with no return.
						m.value = m.v
						record(m, math.MaxInt64)
					}
				default:
					want := cur
					if m.op == OpWrite {
						want, cur = m.v, m.v
					}
					if m.err != nil || !bytes.Equal(m.value, want) {
						t.Errorf("member %d (%v): %v, %v; want %v", i, m.op, m.value, m.err, want)
					}
					record(m, ret)
				}
			}

			installs := srv.Ops() - installs0 - 1 // the round in flight's is not the fold's
			laps := len(segments) - 1
			wantInstalls, wantLaps, wantCt := int64(1), 1, uint64(2)
			switch tc.fault {
			case "stale":
				wantInstalls, wantLaps, wantCt = 0, 1+recoveryAllowance, 1+recoveryAllowance
			case "dropped":
				wantCt = 1 // an ambiguous failure leaves the counter where it was
			}
			if installs != wantInstalls || laps != wantLaps {
				t.Errorf("the fold took %d laps and installed %d times, want %d and %d", laps, installs, wantLaps, wantInstalls)
			}
			if ct := counter(); tc.fault != "stale" && ct != wantCt {
				t.Errorf("counter %d after the fold, want %d", ct, wantCt)
			}
			if ct, want := recordCounter(), uint64(1+installs)+uint64(peerWrites); ct != want {
				t.Errorf("the record is at counter %d, want %d: one step per install", ct, want)
			}
			if wal := reg.Value("ortoa_kvstore_wal_appends_total") - wal0; wal != 1+installs+int64(peerWrites) {
				t.Errorf("%d WAL records, want %d: one per install", wal, 1+installs+int64(peerWrites))
			}

			// The key's next access settles a fold that failed: one request
			// after a fold that applied, two — stale, then rebased — after
			// one that failed with the record moved.
			final := launch(context.Background(), OpRead, nil)
			wg.Wait()
			if final.err != nil {
				t.Fatalf("the next read: %v", final.err)
			}
			record(final, clock.Add(1))
			wantFinal := 1
			if tc.fault != "" {
				wantFinal = 2
			}
			if n := len(segments) - 1 - laps; n != wantFinal {
				t.Errorf("the next read cost %d requests, want %d", n, wantFinal)
			}
			for i, n := range segments {
				if n != 1 {
					t.Errorf("request %d carried %d segments, want 1", i, n)
				}
			}
			if !linearizable(history, string(initial)) {
				t.Errorf("the history is not linearizable as one register: %+v", history)
			}
		})
	}
}

// TestLBLServerRepeatedKeyInstallsOnce hands the server a request naming
// one key twice, which no proxy of this release sends: both segments
// snapshot the same record and the compare-and-swap installs at most one
// of them. Keyed both at the record's counter, one installs and the other
// is answered stale with the verifier of the record the first left; keyed
// at consecutive counters, as a chain of the previous exchange version
// was, the first installs and the second is stale before it decrypts
// anything. Either way the record moves one step and the bystander in the
// same request is served.
func TestLBLServerRepeatedKeyInstallsOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		second uint64 // the counter the key's second segment is keyed at
	}{{"both at the counter", 0}, {"at consecutive counters", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := LBLConfig{ValueSize: 4, Mode: LBLPointPermute}
			proxy, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
			if err != nil {
				t.Fatal(err)
			}
			store := kvstore.New()
			for _, k := range []string{"k", "other"} {
				ek, rec, err := proxy.BuildRecord(k, []byte{1, 2, 3, 4})
				if err != nil {
					t.Fatal(err)
				}
				store.Put(ek, rec) //nolint:errcheck // no WAL attached
			}
			frames, _ := builtFrames(t, proxy, []tableSpec{
				proxy.spec(OpRead, "k", nil, 0),
				proxy.spec(OpWrite, "k", []byte{5, 5, 5, 5}, tc.second),
				proxy.spec(OpRead, "other", nil, 0),
			})
			srv := NewLBLServer(store)
			resp, err := srv.access(context.Background(), frames[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			slotLen := cfg.ResponseBytesPerAccess()
			ek := proxy.prf.EncodeKey("k")
			rec, err := store.Get(string(ek[:]))
			if err != nil {
				t.Fatal(err)
			}
			_, verifier := cfg.recordParts(rec)
			if ct, ok := proxy.vk.open(verifier, ek); !ok || ct != 1 {
				t.Errorf("the record is at counter %d (ok %v), want 1: one install", ct, ok)
			}
			ok, stale := 0, 0
			for i := 0; i < 2; i++ {
				slot := resp[i*slotLen : (i+1)*slotLen]
				switch slot[0] {
				case slotOK:
					ok++
				case slotStale:
					stale++
					// The record the swap lost to, or the snapshot a second
					// segment keyed past it failed against.
					held := verifierAt(proxy, "k", 1-tc.second)
					if !bytes.Equal(slot[1:1+cfg.ValueSize], make([]byte, cfg.ValueSize)) || !bytes.Equal(slot[1+cfg.ValueSize:], held) {
						t.Errorf("stale slot %d carries %x, want zero fields and the verifier of counter %d", i, slot[1:], 1-tc.second)
					}
				}
			}
			if ok != 1 || stale != 1 {
				t.Errorf("the key's slots: %d slotOK and %d slotStale, want one of each", ok, stale)
			}
			if tc.second == 1 && resp[0] != slotOK {
				t.Errorf("the segment keyed at the record's counter was answered %d, want slotOK", resp[0])
			}
			if resp[2*slotLen] != slotOK {
				t.Errorf("bystander slot status %d, want slotOK", resp[2*slotLen])
			}
			if got := srv.Ops(); got != 2 {
				t.Errorf("server counted %d accesses, want 2: the key once and the bystander", got)
			}
		})
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

// TestLBLAmbiguousFoldResolves: a batch folding four accesses to one key
// whose round fails ambiguously leaves the key's counter at ct, and the
// key's next access settles it with no round trip of its own. If the fold
// never ran, that access executes at once: one request. If it ran — its
// one install, or the access would not be stale — the server answers
// stale with the verifier the fold left, the proxy rebases to ct+1, and
// the access goes around once: two requests. A second loss in between
// changes nothing, whichever of the two rounds ran: the verifier says
// where the record is.
func TestLBLAmbiguousFoldResolves(t *testing.T) {
	const valueSize = 8
	cfg := streamCfg(LBLPointPermute, valueSize, 4)
	initial := bytes.Repeat([]byte{7}, valueSize)
	lost, skipped := &verdict{lose: true}, &verdict{skip: true, lose: true}
	for _, tc := range []struct {
		name string
		// fold is the fold's verdict; nil cuts its request after the
		// first frame. then, when set, is the verdict on a read of the key
		// that fails in between.
		fold, then *verdict
		ran        bool
		requests   int    // the next access's
		wantCt     uint64 // after it
	}{
		{"ran, response lost", lost, nil, true, 2, 1 + 1 + 1},
		{"never ran, response lost", skipped, nil, false, 1, 1 + 1},
		{"cut after the first frame", nil, nil, false, 1, 1 + 1},
		// Lost twice: the read in between is answered stale, and the answer
		// lost; or it runs where the fold did not, and its answer is lost.
		{"ran, then a stale answer lost", lost, lost, true, 2, 1 + 1 + 1},
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
			if _, err := proxy.AccessContext(context.Background(), OpRead, "k", nil); err != nil { // the fold goes at ct = 1
				t.Fatal(err)
			}

			if tc.fold != nil {
				verdicts <- tc.fold
			} else {
				cut.arm(cfg.StreamChunkBytes)
			}
			ops, written := foldOps(valueSize, 0xAB)
			ops = append(ops, BatchOp{Op: OpRead, Key: "k"})
			results := proxy.AccessBatch(context.Background(), ops)
			for i, res := range results {
				if !transport.Ambiguous(res.Err) {
					t.Fatalf("op %d: %v, want an ambiguous failure", i, res.Err)
				}
			}
			settled(2) // the first read and the fold
			if tc.then != nil {
				verdicts <- tc.then
				if _, err := proxy.AccessContext(context.Background(), OpRead, "k", nil); !transport.Ambiguous(err) {
					t.Fatalf("the read in between: %v, want an ambiguous failure", err)
				}
				settled(3)
			}

			before := requests.Load()
			value, err := proxy.AccessContext(context.Background(), OpRead, "k", nil)
			want := initial
			if tc.ran {
				want = written
			}
			if err != nil || !bytes.Equal(value, want) {
				t.Fatalf("read %v (%v), want %v: the fold must have run whole or not at all", value, err, want)
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
