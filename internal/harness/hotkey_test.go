package harness

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/tier"
	"ortoa/internal/transport"
)

// TestHotKeyUnderResets is the case the fault drills cannot run, their
// workers owning disjoint keys: sessions that share ONE key through a
// front end, so that their accesses are held for it and leave as chains,
// while a seeded plan resets the proxy's connections to the server under
// them — a round cut before it was sent, which never ran — and drops
// responses — a round that ran and timed out. One writer writes
// increasing versions; readers must never see the
// version go back, nor fall behind a write acknowledged before they
// asked; and once the link heals the key must read as the last
// acknowledged version or a later one whose outcome a reset left
// unknown. Nothing is configured for recovery: a chain that ran while its
// response was dropped leaves the counter behind the record, and the
// key's next access must rebase it from the stale answer's label.
func TestHotKeyUnderResets(t *testing.T) {
	const (
		valueSize = 8
		versions  = 150
		readers   = 5
		key       = "hot"
	)
	plan := &netsim.FaultPlan{Seed: 22, ResetProb: 0.03, BlackholeProb: 0.03, MaxFaults: 16}
	plan.SetActive(false)
	reg := obs.NewRegistry()
	version := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

	srv, err := tier.NewServer(tier.ServerConfig{Protocol: tier.LBL, ValueSize: valueSize, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	link := netsim.Listen(netsim.Link{Fault: plan})
	go srv.Transport.Serve(link) //nolint:errcheck // returns on Close
	px, err := tier.NewProxy(tier.ProxyConfig{Protocol: tier.LBL, ValueSize: valueSize, PRF: prf.NewRandom(),
		LBL: core.LBLConfig{Mode: core.LBLPointPermute}, Transport: transport.Options{PoolSize: 4, CallTimeout: 30 * time.Millisecond}, Metrics: reg}, link.Dial)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	ek, rec, err := px.BuildRecord(key, version(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.BulkLoad(px.RPC, []core.KV{{Key: ek, Record: rec}}); err != nil {
		t.Fatal(err)
	}
	front, err := px.NewFront(tier.FrontConfig{})
	if err != nil {
		t.Fatal(err)
	}
	frontLn := netsim.Listen(netsim.Loopback)
	go front.Transport.Serve(frontLn) //nolint:errcheck // returns on Close
	rpc, err := transport.Dial(frontLn.Dial, readers+1)
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	users := core.NewRemoteAccessor(rpc)

	// settle classifies one operation's error: any outcome but success and
	// a definite or unknown failure is fatal, and a failure usually means
	// the pooled connections died, so the session lets the redial land.
	settle := func(who string, err error) outcome {
		o := classify(err)
		if o == outcomeTampered || o == outcomeBusy {
			t.Errorf("%s: %v", who, err)
		} else if o != outcomeOK {
			time.Sleep(2 * time.Millisecond)
		}
		return o
	}

	var acked, attempted atomic.Uint64 // the writer's last acknowledged and last issued versions
	var unknown sync.Map               // versions whose write ended ambiguously
	var lost int                       // how many there were
	var wg sync.WaitGroup
	done := make(chan struct{})
	plan.SetActive(true)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := max(last, acked.Load())
				got, _, err := users.Access(core.OpRead, key, nil)
				if settle("reader", err) != outcomeOK {
					continue
				}
				if v := binary.BigEndian.Uint64(got); v < floor || v > attempted.Load() {
					t.Errorf("read version %d after %d was seen or acknowledged and %d issued: the version went back, or came from nowhere", v, floor, attempted.Load())
					return
				} else {
					last = v
				}
			}
		}()
	}
	for v := uint64(1); v <= versions && !t.Failed(); v++ {
		attempted.Store(v)
		_, _, err := users.Access(core.OpWrite, key, version(v))
		switch settle("writer", err) {
		case outcomeOK:
			acked.Store(v)
		case outcomeAmbiguous:
			unknown.Store(v, true)
			lost++
		}
	}
	close(done)
	wg.Wait()
	plan.SetActive(false)

	var got []byte
	for attempt := 0; attempt < 100; attempt++ { // the pool redials
		if got, _, err = users.Access(core.OpRead, key, nil); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("the key does not read once the link has healed: %v", err)
	}
	final := binary.BigEndian.Uint64(got)
	if _, maybe := unknown.Load(final); final != acked.Load() && !(maybe && final > acked.Load()) {
		t.Errorf("healed key holds version %d, want the last acknowledged %d or a later one left unknown", final, acked.Load())
	}
	chains := reg.Histogram("ortoa_agg_chain_accesses", "")
	rebased := reg.Value("ortoa_lbl_reconciled_keys_total")
	faults := plan.Stats()
	t.Logf("%d resets and %d dropped responses, %d rebases, %d single accesses in %d chains, %d of %d writes left unknown",
		faults.Resets, faults.Blackholes, rebased, chains.Sum(), chains.Count(), lost, versions)
	if faults.Resets == 0 || faults.Blackholes == 0 || rebased == 0 {
		t.Errorf("%d resets and %d dropped responses led to %d rebases: no round ran behind a lost response", faults.Resets, faults.Blackholes, rebased)
	}
	if behind := reg.Value("ortoa_lbl_rolled_back_keys_total"); behind != 0 {
		t.Errorf("%d stale answers were behind the counter on a server that never rolled back", behind)
	}
	if uint64(chains.Sum()) <= chains.Count() {
		t.Error("no chain carried more than one access: the sessions never collided on the key")
	}
	if vp, vs := shapeViolations(reg); vp+vs != 0 {
		t.Errorf("obliviousness shape violations under resets: proxy=%d server=%d", vp, vs)
	}
}
