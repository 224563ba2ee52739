package harness

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/obs"
	"ortoa/internal/stats"
	"ortoa/internal/transport"
)

// This file is the one fault-drill workload and audit. Every
// robustness experiment — chaos, crash, failover, overload, stream —
// injects its own faults into a Cluster and then asks the same two
// questions of it, which are the system's promises under any fault:
//
//   - No lost or duplicated writes. Workers own disjoint keys and
//     track, per key, the set of values it may legitimately hold: the
//     last confirmed value, plus every write whose outcome a fault left
//     unknown. Every successful read, and the final read-back of every
//     key, must return a member of that set; a write acknowledged and
//     then rolled back, or applied twice, surfaces as a non-member.
//   - At most one round per counter value. A read only succeeds if the
//     slot's label digest is that of labels at the key's current counter
//     (§5.4), so a double-applied or half-applied round — which
//     would desynchronize the label schedule for good (§5.3.1) — fails
//     a later read as ErrTampered. After the faults stop every key must
//     read cleanly.
//
// What differs between drills is which definite failures the injected
// fault makes legitimate, and that is the workload's tolerate argument.

// An outcome classifies what one drill operation's error says about
// whether it executed. The order is the order of tolerance: a drill
// names the worst outcome its fault legitimately produces, and anything
// past it is fatal.
type outcome int

const (
	// outcomeOK: executed; a read's value is checked against the
	// acceptable set, which then collapses to what was read or written.
	outcomeOK outcome = iota
	// outcomeAmbiguous: may or may not have executed; a write's value
	// joins the acceptable set.
	outcomeAmbiguous
	// outcomeBusy: shed before executing; the set is unchanged and the
	// operation is offered again after the shedder's hint.
	outcomeBusy
	// outcomeRejected: refused before executing by a named protocol
	// check — a stale rejection past the round's recovery allowance while
	// two proxies serve one key, or an expired deadline budget; the set
	// is unchanged, the op skipped.
	outcomeRejected
	// outcomeFailed: any other definite error; the set is unchanged.
	// Legitimate only while a tier is being killed under the workload.
	outcomeFailed
	// outcomeTampered: the §5.4 integrity check failed. Never tolerated.
	outcomeTampered
)

// classify is the drills' one error classifier. Ambiguity is tested
// before the named rejections so that a relayed "outcome unknown"
// wrapping a definite-sounding cause still widens the set — the
// conservative reading.
func classify(err error) outcome {
	var re *transport.RemoteError
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, core.ErrTampered),
		errors.As(err, &re) && strings.Contains(re.Msg, core.ErrTampered.Error()):
		return outcomeTampered
	case transport.IsBusy(err):
		return outcomeBusy
	case transport.Ambiguous(err):
		return outcomeAmbiguous
	case core.IsStaleRound(err), core.IsDeadlineExpired(err):
		return outcomeRejected
	default:
		return outcomeFailed
	}
}

// maxBusyRetries bounds how often one operation may be re-offered
// after busy rejections before the workload declares starvation. At
// millisecond retry-after hints this is tens of seconds of refusal on
// one op — admission control always admits MaxInflight requests, so a
// live deployment can only hit this if shedding stopped making progress.
const maxBusyRetries = 10000

// busyDelay returns how long a worker backs off after a busy
// rejection: the shedder's retry-after hint when it reached the client
// intact, else a small default — enough to let a slot free up without
// a saturation drill ever going idle.
func busyDelay(err error) time.Duration {
	var be *transport.BusyError
	if errors.As(err, &be) && be.RetryAfter > 0 {
		return be.RetryAfter
	}
	return 2 * time.Millisecond
}

// drillTotals counts a drill's operations by outcome; expired is the
// share of rejected operations whose deadline budget ran out.
type drillTotals struct{ ops, ok, amb, busy, expired, failed int64 }

// A drill drives a 50/50 read/write closed loop over a cluster, one
// worker per disjoint key set, and remembers across run calls — a
// crash drill's cycles, a chaos drill's phases — what every key may
// hold, for the audit at the end.
type drill struct {
	cluster *Cluster
	gen     uint64 // namespaces written values and seeds the workers
	// tolerate is the worst outcome the drill's fault legitimately
	// produces; an operation ending in a later one is fatal.
	tolerate outcome
	// failPause, when positive, is slept after an operation a fault cut
	// short, so a drill that counts accesses spends them on live
	// connections rather than on a pool that is still redialing.
	failPause time.Duration
	// rec, when non-nil, records the latency of every successful
	// operation.
	rec *stats.Recorder

	keys   [][]string          // per worker: the keys it owns
	sets   []map[string]valSet // per worker: what each owned key may hold
	writes []uint64            // per worker: writes issued so far
	runs   uint64
	totals drillTotals

	done  atomic.Int64 // operations completed in the current run
	hooks []drillHook
}

// A valSet is the set of values one key may legitimately hold.
type valSet map[string]bool

type drillHook struct {
	after int64
	fn    func() error
}

// newDrill splits keys evenly over workers and seeds every key's
// acceptable set with its loaded value.
func newDrill(cluster *Cluster, keys []string, workers int, gen uint64, tolerate outcome) *drill {
	d := &drill{cluster: cluster, gen: gen, tolerate: tolerate, writes: make([]uint64, workers)}
	per := len(keys) / workers
	for w := 0; w < workers; w++ {
		own := keys[w*per : (w+1)*per]
		sets := make(map[string]valSet, per)
		for _, k := range own {
			sets[k] = valSet{string(cluster.cfg.Data[k]): true}
		}
		d.keys, d.sets = append(d.keys, own), append(d.sets, sets)
	}
	return d
}

// at schedules fn for the next run: it is called once `after`
// operations have completed (or the workload has ended early), on its
// own goroutine and after every earlier-scheduled hook has returned —
// how a drill times a kill or a restart against workload progress.
func (d *drill) at(after int64, fn func() error) {
	d.hooks = append(d.hooks, drillHook{after, fn})
}

// run has every worker perform opsPerWorker operations and fires the
// scheduled hooks. It returns the first fatal workload error, else the
// first hook error.
func (d *drill) run(opsPerWorker int) error {
	run, hooks := d.runs, d.hooks
	d.runs, d.hooks = d.runs+1, nil
	d.done.Store(0)
	hookErr := make(chan error, 1)
	go func() {
		for _, h := range hooks {
			for d.done.Load() < h.after {
				time.Sleep(time.Millisecond)
			}
			if err := h.fn(); err != nil {
				hookErr <- err
				return
			}
		}
		hookErr <- nil
	}()

	byWorker := make([]drillTotals, len(d.keys))
	fatal := core.ForEach(len(d.keys), len(d.keys), func(w int) error {
		if err := d.work(w, run, opsPerWorker, &byWorker[w]); err != nil {
			return fmt.Errorf("worker %d: %w", w, err)
		}
		return nil
	})
	for _, t := range byWorker {
		d.totals.ops += t.ops
		d.totals.ok += t.ok
		d.totals.amb += t.amb
		d.totals.busy += t.busy
		d.totals.expired += t.expired
		d.totals.failed += t.failed
	}
	// Release hooks still waiting on a threshold an early exit never
	// reached, and always drain them, so a kill or recovery never races
	// the caller's deferred Close.
	d.done.Store(math.MaxInt64)
	if err := <-hookErr; fatal == nil {
		fatal = err
	}
	return fatal
}

// work is one worker's share of a run, counted into t.
func (d *drill) work(w int, run uint64, ops int, t *drillTotals) error {
	rng := rand.New(rand.NewPCG(d.gen, run<<32|uint64(w)))
	own := d.keys[w]
	for i := 0; i < ops; i++ {
		key := own[rng.IntN(len(own))]
		var val []byte // nil reads
		if rng.IntN(2) == 1 {
			val = chaosValue(d.cluster.cfg.ValueSize, d.writes[w]*uint64(len(d.keys))+uint64(w), d.gen)
			d.writes[w]++
		}
		t.ops++
		if err := d.offer(d.sets[w], key, val, t); err != nil {
			return err
		}
		d.done.Add(1)
	}
	return nil
}

// offer performs one operation — a read when val is nil — re-offering
// it while it is shed, and folds the outcome into the key's acceptable
// set. A non-nil error is fatal to the drill.
func (d *drill) offer(sets map[string]valSet, key string, val []byte, t *drillTotals) error {
	op, name := core.OpRead, "read"
	if val != nil {
		op, name = core.OpWrite, "write"
	}
	for tries := 0; ; tries++ {
		start := time.Now()
		got, _, err := d.cluster.Access(op, key, val)
		out := classify(err)
		if out > d.tolerate {
			return fmt.Errorf("%s %q: %w", name, key, err)
		}
		switch out {
		case outcomeOK:
			if val == nil {
				if !sets[key][string(got)] {
					return fmt.Errorf("read %q returned a value no acknowledged or in-flight write produced (lost or duplicated write)", key)
				}
				val = got
			}
			sets[key] = valSet{string(val): true}
			t.ok++
			if d.rec != nil {
				d.rec.Add(time.Since(start))
			}
			return nil
		case outcomeBusy:
			t.busy++
			if tries >= maxBusyRetries {
				return fmt.Errorf("%q starved: %d consecutive busy rejections", key, tries)
			}
			time.Sleep(busyDelay(err))
			continue
		case outcomeAmbiguous:
			t.amb++
			if val != nil {
				sets[key][string(val)] = true
			}
		case outcomeRejected:
			if core.IsDeadlineExpired(err) {
				t.expired++
			}
			return nil // refused by the protocol, not cut by a fault: no pause
		default:
			t.failed++
		}
		time.Sleep(d.failPause)
		return nil
	}
}

// audit reads every tracked key back once the drill's faults are over:
// each must read cleanly and hold an acceptable value, and whatever the
// faults made the tiers send — retries, replays, stale answers, busy frames,
// cut requests — the shape auditors on both sides must have seen no
// frame leave its class's pinned length. It returns the number of keys
// audited.
func (d *drill) audit() (int, error) {
	audited := 0
	for _, sets := range d.sets {
		for key, set := range sets {
			got, err := readBack(d.cluster, key)
			if classify(err) == outcomeTampered {
				return audited, fmt.Errorf("%q label schedule desynchronized (duplicate or half-applied round): %w", key, err)
			}
			if err != nil {
				return audited, fmt.Errorf("read %q after recovery: %w", key, err)
			}
			if !set[string(got)] {
				return audited, fmt.Errorf("%q holds a value no write produced (acknowledged write lost, or one applied twice)", key)
			}
			audited++
		}
	}
	if vp, vs := shapeViolations(d.cluster.cfg.Metrics); vp+vs != 0 {
		return audited, fmt.Errorf("obliviousness shape violations under the drill's faults: proxy=%d server=%d", vp, vs)
	}
	return audited, nil
}

// readBack reads key on a deployment whose faults have stopped, riding
// out the tail of recovery — a pool still redialing, a key refused once
// for a server rollback — with a bounded retry (about two seconds). An
// integrity failure is never retried.
func readBack(cluster *Cluster, key string) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		got, _, err := cluster.Access(core.OpRead, key, nil)
		if err == nil || classify(err) == outcomeTampered || attempt == 40 {
			return got, err
		}
		time.Sleep(min(time.Duration(attempt)*5*time.Millisecond, 50*time.Millisecond))
	}
}

// drillCluster deploys the cluster a drill runs on. What the drill's
// fault needs — link, fleet, durability, admission, transport policy —
// comes from cfg; the rest is fixed: point-and-permute LBL at the
// paper's value size over data, and a registry of its own, which the
// audit reads both shape auditors from.
func drillCluster(data map[string][]byte, cfg Config) (*Cluster, error) {
	cfg.System, cfg.LBLMode, cfg.ValueSize = SystemLBL, core.LBLPointPermute, paperValueSize
	cfg.Data, cfg.Metrics = data, obs.NewRegistry()
	return NewCluster(cfg)
}

// drillData names n keys prefix-0000… and gives each a distinct
// initial value of generation gen.
func drillData(prefix string, n, valueSize int, gen uint64) ([]string, map[string][]byte) {
	keys := make([]string, n)
	data := make(map[string][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%04d", prefix, i)
		data[keys[i]] = chaosValue(valueSize, uint64(i), gen)
	}
	return keys, data
}

// chaosValue builds a deterministic size-byte value for write i of
// generation gen, distinguishable from every other (i, gen).
func chaosValue(size int, i, gen uint64) []byte {
	v := make([]byte, size)
	for j := range v {
		v[j] = byte(i>>((uint(j)%8)*8)) ^ byte(gen*131) ^ byte(j)
	}
	return v
}
