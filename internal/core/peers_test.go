package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// newLBLPeers returns n proxies sharing one PRF secret and one server —
// the multi-proxy deployment shape: any peer can serve any key, and the
// record's verifier decides between them. Each proxy dials the server
// over its own transport client, so each has its own connection pool and
// dedup session, as separate proxy processes do; the rig's client is the
// first proxy's. Every proxy is instrumented with a registry of its own.
func newLBLPeers(t *testing.T, n int, cfg LBLConfig) (*rig, []*LBLProxy, *LBLServer) {
	t.Helper()
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Loopback)
	go r.server.Serve(l) //nolint:errcheck // returns on Close
	t.Cleanup(func() { r.server.Close() })
	RegisterLoader(r.server, r.store)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	f := prf.NewRandom()
	peers := make([]*LBLProxy, n)
	for i := range peers {
		c, err := transport.Dial(l.Dial, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if peers[i], err = NewLBLProxy(cfg, f, c); err != nil {
			t.Fatal(err)
		}
		peers[i].Instrument(obs.NewRegistry())
	}
	r.client = peers[0].client
	return r, peers, srv
}

// A registerOp is one completed access of a history on one register:
// invoked and returned at ticks of one shared clock, reading or writing
// value.
type registerOp struct {
	call, ret int64
	write     bool
	value     string
}

// A historyEvent is one operation's call or return, linked in clock
// order into the list linearizable lifts placed operations out of.
type historyEvent struct {
	op         int
	at         int64
	ret        *historyEvent // a call's return; nil on a return
	prev, next *historyEvent
}

// unlink takes e out of its list; relink puts it back where it was.
// Relinking in the reverse order of unlinking restores the list.
func (e *historyEvent) unlink() {
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	}
}

func (e *historyEvent) relink() {
	e.prev.next = e
	if e.next != nil {
		e.next.prev = e
	}
}

// linearizable reports whether history — every access that completed
// successfully — can be ordered into a sequential run of one register
// starting at initial that respects real time: Wing and Gong's search,
// with Lowe's memo of (placed set, register value) pairs already
// explored. Unique written values keep the search small: a read's value
// names the one write it must follow, so few orders reach one state.
func linearizable(history []registerOp, initial string) bool {
	events := make([]*historyEvent, 0, 2*len(history))
	for i, op := range history {
		ret := &historyEvent{op: i, at: op.ret}
		events = append(events, &historyEvent{op: i, at: op.call, ret: ret}, ret)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	head := &historyEvent{}
	for prev, i := head, 0; i < len(events); prev, i = events[i], i+1 {
		prev.next, events[i].prev = events[i], prev
	}

	placed := make([]uint64, (len(history)+63)/64)
	flip := func(op int) { placed[op/64] ^= 1 << (op % 64) }
	explored := map[string]bool{}
	type choice struct {
		call  *historyEvent
		state string // the register's value before the call's operation
	}
	var stack []choice
	state := initial
	for e := head.next; e != nil; {
		if e.ret != nil {
			// A call: place its operation next if the register allows it
			// and the search has not been here before.
			op := history[e.op]
			if op.write || op.value == state {
				flip(e.op)
				key := string(binary.LittleEndian.AppendUint64(nil, uint64(len(op.value)))) + op.value
				for _, w := range placed {
					key += string(binary.LittleEndian.AppendUint64(nil, w))
				}
				if !explored[key] {
					explored[key] = true
					stack = append(stack, choice{e, state})
					state = op.value
					e.unlink()
					e.ret.unlink()
					e = head.next
					continue
				}
				flip(e.op)
			}
			e = e.next
			continue
		}
		// A return whose call no order tried so far can place: undo the
		// last placement and try the call after it.
		if len(stack) == 0 {
			return false
		}
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		state = c.state
		flip(c.call.op)
		c.call.ret.relink()
		c.call.relink()
		e = c.call.next
	}
	return true
}

// TestLinearizable holds the checker to hand-made histories on a
// register that starts at "0".
func TestLinearizable(t *testing.T) {
	w := func(call, ret int64, v string) registerOp { return registerOp{call, ret, true, v} }
	r := func(call, ret int64, v string) registerOp { return registerOp{call, ret, false, v} }
	for _, c := range []struct {
		name    string
		history []registerOp
		want    bool
	}{
		{"empty", nil, true},
		{"sequential", []registerOp{r(1, 2, "0"), w(3, 4, "a"), r(5, 6, "a")}, true},
		{"a read overlapping a write sees either value",
			[]registerOp{w(1, 4, "a"), r(2, 3, "0"), r(5, 8, "a"), w(6, 9, "b"), r(7, 10, "b")}, true},
		{"concurrent writes in the order the reads saw",
			[]registerOp{w(1, 5, "a"), w(2, 6, "b"), r(7, 8, "a")}, true},
		{"a read of a value overwritten before it began", []registerOp{w(1, 2, "a"), w(3, 4, "b"), r(5, 6, "a")}, false},
		{"a read of the initial value after a write completed", []registerOp{w(1, 2, "a"), r(3, 4, "0")}, false},
		{"a read of a value never written", []registerOp{r(1, 2, "x")}, false},
		{"two readers disagreeing on the order of two writes",
			[]registerOp{w(1, 2, "a"), w(1, 2, "b"), r(3, 4, "a"), r(5, 6, "b"), r(7, 8, "a")}, false},
	} {
		if got := linearizable(c.history, "0"); got != c.want {
			t.Errorf("%s: linearizable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTwoProxiesOneHotKey is the multi-proxy safety gate: two proxies
// sharing one PRF and one server, with nothing between them but the
// record's verifier, each run callers hammering one key. Every verdict
// is a count. Each outcome is a success or a definite stale failure — a
// round that used up its recovery allowance while the other proxy kept
// moving the record — never ambiguous or tampered. The counter the stored
// record's verifier carries equals the successes across both proxies:
// nothing applied twice, nothing acknowledged missing. And the successful
// history is linearizable as one register.
func TestTwoProxiesOneHotKey(t *testing.T) {
	const (
		proxies = 2
		callers = 4
		ops     = 100
		key     = "hot"
	)
	cfg := LBLConfig{ValueSize: 8, Mode: LBLPointPermute}
	r, peers, _ := newLBLPeers(t, proxies, cfg)
	initial := make([]byte, cfg.ValueSize)
	loadData(t, r, peers[0], map[string][]byte{key: initial})

	var (
		clock   atomic.Int64
		mu      sync.Mutex
		history []registerOp
		stale   int64
		wg      sync.WaitGroup
	)
	for p, proxy := range peers {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					kind, value := OpRead, []byte(nil)
					if (i+c)%2 == 0 {
						// Unique per write: proxy, caller and operation.
						kind = OpWrite
						value = binary.LittleEndian.AppendUint64(nil, uint64(p)<<40|uint64(c)<<20|uint64(i)+1)
					}
					op := registerOp{write: kind == OpWrite, call: clock.Add(1)}
					got, _, err := proxy.Access(kind, key, value)
					op.ret = clock.Add(1)
					mu.Lock()
					switch {
					case err == nil:
						op.value = string(got)
						history = append(history, op)
					case IsStaleRound(err) && !transport.Ambiguous(err):
						stale++
					default:
						t.Errorf("proxy %d caller %d op %d: %v, want a success or a definite stale failure", p, c, i, err)
					}
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if len(history) == 0 {
		t.Fatal("no access succeeded: an empty history proves nothing")
	}

	ek := peers[0].prf.EncodeKey(key)
	rec, err := r.store.Get(string(ek[:]))
	if err != nil {
		t.Fatal(err)
	}
	_, verifier := cfg.recordParts(rec)
	ct, ok := peers[0].vk.open(verifier, ek)
	if !ok {
		t.Fatal("the stored record's verifier is not the key's")
	}
	if ct != uint64(len(history)) {
		t.Errorf("the record is at counter %d after %d successful accesses: a round applied twice or an acknowledged one is missing", ct, len(history))
	}
	if !linearizable(history, string(initial)) {
		t.Error("the successful accesses are not linearizable as one register")
	}
	var rebases int64
	for _, p := range peers {
		rebases += p.mx.reconciledKeys.Value()
	}
	total := int64(proxies * callers * ops)
	t.Logf("%d accesses: %d succeeded, %d used up the recovery allowance of %d rebases and failed stale; %d rebases, %.3f per access",
		total, len(history), stale, recoveryAllowance, rebases, float64(rebases)/float64(total))
}

// TestRouterReturnsStale: a stale rejection that outlived a member's
// recovery allowance is the access's definite outcome. The router
// returns it from the first member it tried and offers the access to no
// other — unless an earlier member's outcome was unknown: that round may
// have applied, so the access stays ambiguous whatever a later member
// answered.
func TestRouterReturnsStale(t *testing.T) {
	for _, tc := range []struct {
		name      string
		first     error // the first member's answer; later ones answer stale
		ambiguous bool
		calls     int64
	}{
		{"stale", errStaleTable, false, 1},
		{"ambiguous then stale", errors.New(transport.AmbiguousMsgPrefix + "conn died mid-round"), true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			members := make([]RouterMember, 2)
			for i := range members {
				s := transport.NewServer()
				s.Handle(MsgClientAccess, func(context.Context, []byte) ([]byte, error) {
					if calls.Add(1) == 1 {
						return nil, tc.first
					}
					return nil, errStaleTable
				})
				l := netsim.Listen(netsim.Loopback)
				go s.Serve(l) //nolint:errcheck // returns on Close
				t.Cleanup(func() { s.Close() })
				members[i] = RouterMember{Name: fmt.Sprintf("proxy-%d", i), Dial: l.Dial}
			}
			router, err := NewRouter(members, RouterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { router.Close() })
			_, _, err = router.Access(OpRead, "k", nil)
			if got := transport.Ambiguous(err); got != tc.ambiguous || !tc.ambiguous && !IsStaleRound(err) {
				t.Fatalf("access: %v (ambiguous %v), want ambiguous %v", err, got, tc.ambiguous)
			}
			if n := calls.Load(); n != tc.calls {
				t.Errorf("%d members were offered the access, want %d", n, tc.calls)
			}
		})
	}
}
