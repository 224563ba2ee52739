package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/workload"
)

// openLanes is the number of open-loop lanes: request i goes to lane
// i mod openLanes, one in flight per lane, later ones queue behind it.
const openLanes = 256

// A source draws one session's or lane's requests. Keys are partitioned
// by lane: a lane writes only keys congruent to it, so it knows their
// exact contents, and reads over the whole keyspace.
type source struct {
	draw        *workload.Generator // read-only stream over all keys
	coin        *rand.Rand
	writeFrac   float64
	keys        int
	lane, lanes int
}

func newSource(w spec, seed, phase uint64, lane, lanes int) *source {
	dist := workload.Uniform
	if w.zipfian {
		dist = workload.Zipfian
	}
	laneSeed := splitmix64(seed ^ phase<<48 ^ uint64(lane)<<24)
	draw, err := workload.NewGenerator(workload.Config{
		NumKeys: w.keys, ValueSize: w.valueSize, Distribution: dist, Seed: laneSeed,
	})
	if err != nil {
		panic(err) // the workload table is wrong
	}
	return &source{
		draw: draw, coin: rand.New(rand.NewPCG(laneSeed, 1)),
		writeFrac: w.writeFrac, keys: w.keys, lane: lane, lanes: lanes,
	}
}

func (s *source) next() (write bool, key int) {
	key, err := strconv.Atoi(s.draw.Next().Key[len("key-"):])
	if err != nil {
		panic(err) // workload.Key changed its format
	}
	if s.coin.Float64() >= s.writeFrac {
		return false, key
	}
	// The lane's own key nearest the drawn one, which keeps the skew.
	key = key - key%s.lanes + s.lane
	if key >= s.keys {
		key -= s.lanes
	}
	return true, key
}

// A runner drives one deployment and checks every reply.
type runner struct {
	w    spec
	seed uint64
	d    *deployment
	m    *model
	keys []string

	attempted, failed atomic.Int64
}

func newRunner(w spec, seed uint64, d *deployment, m *model) *runner {
	r := &runner{w: w, seed: seed, d: d, m: m, keys: make([]string, w.keys)}
	for k := range r.keys {
		r.keys[k] = workload.Key(k)
	}
	return r
}

// do performs one operation on behalf of lane and reports whether it
// succeeded with a correct reply.
func (r *runner) do(write bool, key, lane, lanes int) bool {
	r.attempted.Add(1)
	ok := false
	if write {
		next := r.m.versions[key] + 1
		if err := r.d.user.Write(r.keys[key], r.m.value(key, next)); err == nil {
			r.m.versions[key] = next
			ok = true
		}
	} else if got, err := r.d.user.Read(r.keys[key]); err == nil {
		if key%lanes == lane {
			ok = r.m.current(key, got)
		} else {
			ok = r.m.wellFormed(key, got)
		}
	}
	if !ok {
		r.failed.Add(1)
	}
	return ok
}

// closedLoop runs the given number of sessions for length; each sends
// its next request when the previous one returns.
func (r *runner) closedLoop(sessions int, length time.Duration, phase uint64) []sample {
	perSession := make([][]sample, sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < sessions; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := newSource(r.w, r.seed, phase, lane, sessions)
			var mine []sample
			defer func() { perSession[lane] = mine }()
			for {
				begin := time.Since(start)
				if begin >= length {
					return
				}
				write, key := src.next()
				if r.do(write, key, lane, sessions) {
					done := time.Since(start)
					mine = append(mine, sample{done: done, latency: done - begin, write: write})
				}
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range perSession {
		all = append(all, s...)
	}
	return all
}

type openResult struct {
	samples []sample  // latency counts from each request's due time
	lateMs  []float64 // how late the generator woke for a request it sent on time
	onTime  []int     // the requests, by index, answered correctly within the limit
	due     int
	missed  int // due minus on time: failed, never sent, or later than the limit
	// okFrac is the median, over openWindows equal windows of the
	// schedule, of the share of a window's requests answered correctly
	// within the limit. A stall of the host's disk for a second empties
	// one or two windows and leaves it alone; a rate the system cannot
	// keep up with empties most of them.
	okFrac float64
}

const openWindows = 20

// openLoop offers requests on a fixed schedule whatever the system
// does: request i is due at start + i/rate. A lane still busy at a
// request's due time sends it as soon as it is free, and the wait
// counts in that request's latency.
func (r *runner) openLoop(length time.Duration, phase uint64) openResult {
	lanes := min(openLanes, r.w.keys)
	res := openResult{due: int(r.w.openRate * length.Seconds())}
	giveUp := length + 2*r.w.openLimit
	perLane := make([]openResult, lanes)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out openResult
			defer func() { perLane[lane] = out }()
			src := newSource(r.w, r.seed, phase, lane, lanes)
			for i := lane; i < res.due; i += lanes {
				due := time.Duration(float64(i) / r.w.openRate * float64(time.Second))
				now := time.Since(start)
				if now > giveUp {
					return
				}
				if now < due {
					time.Sleep(due - now)
					out.lateMs = append(out.lateMs, float64(time.Since(start)-due)/float64(time.Millisecond))
				}
				write, key := src.next()
				if r.do(write, key, lane, lanes) {
					done := time.Since(start)
					out.samples = append(out.samples, sample{done: done, latency: done - due, write: write})
					if done-due <= r.w.openLimit {
						out.onTime = append(out.onTime, i)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, l := range perLane {
		res.samples = append(res.samples, l.samples...)
		res.lateMs = append(res.lateMs, l.lateMs...)
		res.onTime = append(res.onTime, l.onTime...)
	}
	res.missed = res.due - len(res.onTime)
	res.okFrac = windowOkFrac(res.due, res.onTime)
	return res
}

// windowOkFrac cuts requests 0..due-1 into openWindows equal windows and
// returns the median window's share of requests that are in onTime.
func windowOkFrac(due int, onTime []int) float64 {
	var dueIn, onTimeIn [openWindows]int
	for i := 0; i < due; i++ {
		dueIn[i*openWindows/due]++
	}
	for _, i := range onTime {
		onTimeIn[i*openWindows/due]++
	}
	var fracs []float64
	for win, n := range dueIn {
		if n > 0 {
			fracs = append(fracs, float64(onTimeIn[win])/float64(n))
		}
	}
	return median(fracs)
}

// auditKeys bounds how many written keys the audit reads back.
const auditKeys = 2000

// audit reads back the keys the run wrote and compares them with the
// model. It runs after the load phases, so any lane may check any key.
func (r *runner) audit() {
	var written []int
	for k, v := range r.m.versions {
		if v > 0 {
			written = append(written, k)
		}
	}
	// Every read in the load phases was already checked; the audit adds
	// that the last write of each key took. A seeded sample keeps it
	// within the run's time budget on the 10,000-key workloads.
	rand.New(rand.NewPCG(r.seed, 2)).Shuffle(len(written), func(i, j int) {
		written[i], written[j] = written[j], written[i]
	})
	written = written[:min(len(written), auditKeys)]
	workers := max(r.w.sessions, 8)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := wkr; i < len(written); i += workers {
				// lane == key mod lanes for every key: exact comparison.
				r.do(false, written[i], 0, 1)
			}
		}()
	}
	wg.Wait()
}

// shapeProbe checks operation-type obliviousness where the adversary
// looks: 200 reads and then 200 writes on one session must move the
// same number of proxy↔server bytes per operation.
func (r *runner) shapeProbe() error {
	const n = 25
	perOp := func(write bool) (float64, error) {
		sent0, recv0, _ := r.d.proxy.TrafficStats()
		for i := 0; i < n; i++ {
			if !r.do(write, i%r.w.keys, 0, 1) {
				return 0, fmt.Errorf("shape probe: operation %d failed", i)
			}
		}
		sent1, recv1, _ := r.d.proxy.TrafficStats()
		return float64(sent1-sent0+recv1-recv0) / n, nil
	}
	reads, err := perOp(false)
	if err != nil {
		return err
	}
	writes, err := perOp(true)
	if err != nil {
		return err
	}
	if reads != writes {
		return fmt.Errorf("shape probe: reads move %.1f B/op and writes %.1f B/op between proxy and server", reads, writes)
	}
	return nil
}
