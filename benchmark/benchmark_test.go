package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// One slow burst must not move the windowed p99.
func TestWindowP99(t *testing.T) {
	var samples []sample
	for w := 0; w < 10; w++ {
		latency := time.Millisecond
		if w == 7 {
			latency = 50 * time.Millisecond
		}
		for i := 0; i < 200; i++ {
			done := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{done: done, latency: latency})
		}
	}
	if got := windowP99(samples, 10*time.Second, 10); got != 1 {
		t.Errorf("windowed p99 = %v ms, want 1", got)
	}
	if got := percentile(latenciesMs(samples, nil), 0.99); got != 50 {
		t.Errorf("whole-phase p99 = %v ms, want 50", got)
	}
}

// A stall that swallows a tenth of the schedule must not move the
// open-loop ok fraction; losing one request in five everywhere must.
func TestWindowOkFrac(t *testing.T) {
	var stalled, overloaded []int
	for i := 0; i < 1000; i++ {
		if i < 300 || i >= 400 {
			stalled = append(stalled, i)
		}
		if i%5 != 0 {
			overloaded = append(overloaded, i)
		}
	}
	if got := windowOkFrac(1000, stalled); got != 1 {
		t.Errorf("with a stall: %v, want 1", got)
	}
	if got := windowOkFrac(1000, overloaded); got != 0.8 {
		t.Errorf("overloaded: %v, want 0.8", got)
	}
}

func TestSelfTimes(t *testing.T) {
	st := stamps{feRead: 10, pxWrite0: 30, pxWrite1: 35, svRead: 50, svWrite: 80, pxRead: 95, feWrite: 100}
	self := selfTimes(st.spans(0, 0, 110))
	want := map[string]time.Duration{
		spanCall: 20, spanProxy: 0, spanPreSend: 20, spanSend: 5,
		spanLinkReq: 15, spanHandle: 30, spanLinkRsp: 15, spanRecover: 5,
	}
	var sum time.Duration
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 110 {
		t.Errorf("self times sum to %v, the call took 110", sum)
	}

	// A second exchange inside one access makes the server's first
	// write precede its last read; the ledger must then stop adding up
	// rather than hide it.
	st.svWrite = 40
	sum = 0
	for _, s := range selfTimes(st.spans(0, 0, 110)) {
		sum += s
	}
	if sum == 110 {
		t.Errorf("out-of-order stamps still sum to the call time")
	}
}

func TestCheckerRejectsWrongValues(t *testing.T) {
	m := newModel(42, 8, 160)
	m.versions[3] = 2
	good := m.value(3, 2)
	if !m.wellFormed(3, good) || !m.current(3, good) {
		t.Fatal("the checker rejects the value it generated")
	}
	flipped := append([]byte(nil), good...)
	flipped[100] ^= 1
	stale := m.value(3, 1)
	for name, c := range map[string]struct {
		got                     []byte
		wantFormed, wantCurrent bool
	}{
		"flipped bit":   {flipped, false, false},
		"stale version": {stale, true, false},
		"other key":     {m.value(4, 2), false, false},
		"other seed":    {newModel(43, 8, 160).value(3, 2), false, false},
		"short":         {good[:100], false, false},
	} {
		if got := m.wellFormed(3, c.got); got != c.wantFormed {
			t.Errorf("%s: wellFormed = %v, want %v", name, got, c.wantFormed)
		}
		if got := m.current(3, c.got); got != c.wantCurrent {
			t.Errorf("%s: current = %v, want %v", name, got, c.wantCurrent)
		}
	}
}

// A lane writes only its own keys, and the same seed gives the same
// requests.
func TestSourceIsSeededAndPartitioned(t *testing.T) {
	for _, w := range workloads {
		lanes := min(openLanes, w.keys)
		a, b := newSource(w, 7, 3, 5, lanes), newSource(w, 7, 3, 5, lanes)
		other := newSource(w, 8, 3, 5, lanes)
		same, differs := true, false
		for i := 0; i < 2000; i++ {
			wa, ka := a.next()
			wb, kb := b.next()
			wo, ko := other.next()
			same = same && wa == wb && ka == kb
			differs = differs || wa != wo || ka != ko
			if ka < 0 || ka >= w.keys {
				t.Fatalf("%s: key %d outside [0,%d)", w.name, ka, w.keys)
			}
			if wa && ka%lanes != 5 {
				t.Fatalf("%s: lane 5 of %d writes key %d", w.name, lanes, ka)
			}
		}
		if !same || !differs {
			t.Errorf("%s: same seed same stream = %v, other seed differs = %v", w.name, same, differs)
		}
	}
}

func testManifest() manifest {
	return manifest{
		Workloads: []manifestWorkload{{Name: "w"}},
		EndToEnd: []manifestMetric{
			{Name: "latency", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "ops/s", Better: "higher", Bound: 0.10},
		},
	}
}

func testSet(latency, rate float64, failed int64) resultSet {
	ms := readings{}
	ms.set("latency", "ms", latency)
	ms.set("rate", "ops/s", rate)
	return resultSet{Workloads: map[string]workloadResult{
		"w": {Valid: true, EndToEnd: result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: ms}},
	}}
}

func TestCompareSets(t *testing.T) {
	parent := testSet(10, 1000, 0)
	for name, c := range map[string]struct {
		change   resultSet
		breaches int
	}{
		"unchanged":            {testSet(10, 1000, 0), 0},
		"better both ways":     {testSet(5, 2000, 0), 0},
		"within bounds":        {testSet(10.9, 910, 0), 0},
		"latency over bound":   {testSet(11.1, 1000, 0), 1},
		"rate under bound":     {testSet(10, 890, 0), 1},
		"both":                 {testSet(12, 800, 0), 2},
		"one failed operation": {testSet(10, 1000, 1), 1},
		"workload missing":     {resultSet{}, 1},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, testManifest(), parent, c.change); got != c.breaches {
			t.Errorf("%s: %d breaches, want %d\n%s", name, got, c.breaches, out.String())
		}
	}
}

// The workload table and BENCHMARK.json must name the same workloads
// for the same reasons.
func TestManifestMatchesWorkloads(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, man.Workloads[i].Name, man.Workloads[i].Why, w.name, w.why)
		}
	}
}

func metricNames(ms []manifestMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func readingNames(ms readings) []string {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A whole run at 2 s, untraced and traced: every operation correct, and
// exactly the metrics BENCHMARK.json promises.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three tiers for several seconds")
	}
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	back, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(back)

	w, _ := findWorkload("lan-160b")
	for _, c := range []struct {
		name string
		run  func(spec, uint64, time.Duration) (result, error)
		want []manifestMetric
	}{{"end to end", runEndToEnd, man.EndToEnd}, {"traced", runTraced, man.PerLayer}} {
		res, err := c.run(w, 1, 2*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d failed", c.name, res.Correct, res.Failed, res.Attempted)
		}
		if got, want := strings.Join(readingNames(res.Metrics), " "), strings.Join(metricNames(c.want), " "); got != want {
			t.Errorf("%s metrics:\n got  %s\n want %s", c.name, got, want)
		}
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", c.name, name, m.Value)
			}
		}
	}
}
