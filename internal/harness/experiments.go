package harness

import (
	"fmt"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/workload"
)

// Options scales experiments. The paper runs 1M-object databases on a
// dedicated fleet; the defaults here are container-friendly while
// preserving every shape the paper reports. Quick shrinks further for
// unit tests and smoke benchmarks.
type Options struct {
	// Quick selects minimal sizes (seconds per experiment).
	Quick bool
	// Keys overrides the database size (0 = default).
	Keys int
	// Ops overrides operations per client thread (0 = default).
	Ops int
	// Concurrency overrides the client thread count (0 = default 32,
	// the paper's default).
	Concurrency int
}

func (o Options) keys() int {
	if o.Keys > 0 {
		return o.Keys
	}
	if o.Quick {
		return 128
	}
	return 2048
}

func (o Options) ops() int {
	if o.Ops > 0 {
		return o.Ops
	}
	if o.Quick {
		return 3
	}
	return 12
}

func (o Options) conc() int {
	if o.Concurrency > 0 {
		return o.Concurrency
	}
	if o.Quick {
		return 8
	}
	return 32
}

func (o Options) locations() []struct {
	Name string
	Link netsim.Link
} {
	if o.Quick {
		return netsim.Locations[:2]
	}
	return netsim.Locations
}

// paperValueSize is the evaluation's default object size: 160 B,
// ℓ = 1280 bits (§6).
const paperValueSize = 160

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

func fmtTput(t float64) string { return fmt.Sprintf("%.0f", t) }

// measureSystems runs each system against the same workload/link, one
// proxy/server pair each, and returns results keyed by system order.
func measureSystems(systems []System, link netsim.Link, wl workload.Config, opt Options) ([]Result, error) {
	results := make([]Result, 0, len(systems))
	for _, sys := range systems {
		res, err := Measure(
			Config{System: sys, Link: link, ValueSize: wl.ValueSize, LBLMode: core.LBLPointPermute},
			wl, opt.conc(), opt.ops(),
		)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sys, err)
		}
		results = append(results, res)
	}
	return results, nil
}

var fig2aClaim = Claim{
	Statement: "2RTT's mean latency is 1.2–2.2x each one-round protocol's at every Table 2 location (paper: 1.5–1.9x)",
	Check: func(t *Table) error {
		lat, err := t.systems("mean-lat(ms)", SystemLBL, SystemTEE, SystemBaseline)
		if err != nil {
			return err
		}
		for _, sys := range []System{SystemLBL, SystemTEE} {
			for i, l := range lat[sys] {
				if r := lat[SystemBaseline][i] / l; r < 1.2 || r > 2.2 {
					return fmt.Errorf("2RTT's mean latency is %.2fx %s's at %s", r, sys, netsim.Locations[i].Name)
				}
			}
		}
		return nil
	},
}

// Fig2a reproduces Figure 2a: latency and throughput of LBL-ORTOA,
// TEE-ORTOA, and the 2RTT baseline as the proxy→server distance grows
// across the Table 2 datacenters.
func Fig2a(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig2a",
		Title:   "ORTOA vs 2RTT baseline across server locations (160B values, 50/50 R/W)",
		Columns: []string{"location", "system", "mean-lat(ms)", "p99-lat(ms)", "tput(ops/s)"},
	}
	systems := []System{SystemLBL, SystemTEE, SystemBaseline}
	wl := workload.Config{NumKeys: opt.keys(), ValueSize: paperValueSize, WriteFraction: 0.5, Seed: 1}
	for _, loc := range opt.locations() {
		results, err := measureSystems(systems, loc.Link, wl, opt)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			t.AddRow(loc.Name, string(systems[i]), fmtMS(res.Latency.Mean), fmtMS(res.Latency.P99), fmtTput(res.Throughput))
		}
	}
	t.Notes = append(t.Notes, "paper: LBL ~1.7x and TEE ~3.2x the baseline's throughput")
	return t, nil
}

var fig2bClaim = Claim{
	Statement: "throughput grows with concurrency: at the most clients each protocol serves at least 3x one client's throughput (paper: ~24x from 1 to 32)",
	Check: func(t *Table) error {
		tput, err := t.systems("tput(ops/s)", SystemLBL, SystemTEE)
		if err != nil {
			return err
		}
		for _, sys := range []System{SystemLBL, SystemTEE} {
			if vs := tput[sys]; vs[len(vs)-1] < 3*vs[0] {
				return fmt.Errorf("%s's throughput grows only %.2fx from one client to the most", sys, vs[len(vs)-1]/vs[0])
			}
		}
		return nil
	},
}

// Fig2b reproduces Figure 2b: throughput/latency of both ORTOA
// versions as client concurrency increases.
func Fig2b(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig2b",
		Title:   "Increasing concurrency (Oregon link, 160B values)",
		Columns: []string{"clients", "system", "mean-lat(ms)", "tput(ops/s)"},
	}
	levels := []int{1, 2, 4, 8, 16, 32, 64}
	if opt.Quick {
		levels = []int{1, 4, 8}
	}
	wl := workload.Config{NumKeys: opt.keys(), ValueSize: paperValueSize, WriteFraction: 0.5, Seed: 2}
	for _, sys := range []System{SystemLBL, SystemTEE} {
		for _, clients := range levels {
			res, err := Measure(
				Config{System: sys, Link: netsim.Oregon, ValueSize: wl.ValueSize, LBLMode: core.LBLPointPermute},
				wl, clients, opt.ops(),
			)
			if err != nil {
				return nil, fmt.Errorf("%s @%d clients: %w", sys, clients, err)
			}
			t.AddRow(fmt.Sprint(clients), string(sys), fmtMS(res.Latency.Mean), fmtTput(res.Throughput))
		}
	}
	t.Notes = append(t.Notes, "paper: throughput grows ~24x from 1 to 32 clients, then latency spikes past the knee")
	return t, nil
}

// flatWithin returns a predicate that holds when, for each one-round
// protocol, column col varies across the table's rows by at most a
// factor of limit: what each "flat in …" claim of §6 reads.
func flatWithin(col string, limit float64) func(*Table) error {
	return func(t *Table) error {
		vs, err := t.systems(col, SystemLBL, SystemTEE)
		if err != nil {
			return err
		}
		for _, sys := range []System{SystemLBL, SystemTEE} {
			if s := spread(vs[sys]); s > limit {
				return fmt.Errorf("%s's %s varies %.2fx across the sweep", sys, col, s)
			}
		}
		return nil
	}
}

var fig2cClaim = Claim{
	Statement: "latency is flat in the write ratio, the witness of operation-type obliviousness: each protocol's mean latency varies by at most 1.25x from 0 to 100% writes",
	Check:     flatWithin("mean-lat(ms)", 1.25),
}

// Fig2c reproduces Figure 2c: performance while the write percentage
// sweeps 0→100 — flatness is the experimental witness of access-type
// obliviousness.
func Fig2c(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig2c",
		Title:   "Varying write percentage (Oregon link, 160B values)",
		Columns: []string{"write%", "system", "mean-lat(ms)", "tput(ops/s)"},
	}
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	if opt.Quick {
		fractions = []float64{0, 0.5, 1}
	}
	for _, sys := range []System{SystemLBL, SystemTEE} {
		for _, frac := range fractions {
			wl := workload.Config{NumKeys: opt.keys(), ValueSize: paperValueSize, WriteFraction: frac, Seed: 3}
			res, err := Measure(
				Config{System: sys, Link: netsim.Oregon, ValueSize: wl.ValueSize, LBLMode: core.LBLPointPermute},
				wl, opt.conc(), opt.ops(),
			)
			if err != nil {
				return nil, fmt.Errorf("%s @%d%% writes: %w", sys, int(frac*100), err)
			}
			t.AddRow(fmt.Sprint(int(frac*100)), string(sys), fmtMS(res.Latency.Mean), fmtTput(res.Throughput))
		}
	}
	return t, nil
}

var fig2dClaim = Claim{
	Statement: "latency is flat in the database size: each protocol's mean latency varies by at most 1.25x across the sweep (paper: flat to 2^20, LBL −11% at 2^22)",
	Check:     flatWithin("mean-lat(ms)", 1.25),
}

// Fig2d reproduces Figure 2d: performance as the database size N
// grows. The paper sweeps 2^10..2^22 on 32 GiB servers; this harness
// sweeps a container-scaled range (LBL records are ~10 KiB each at
// 160 B values).
func Fig2d(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig2d",
		Title:   "Varying database size N (Oregon link, 160B values; paper sweeps to 2^22)",
		Columns: []string{"N", "system", "mean-lat(ms)", "tput(ops/s)"},
	}
	sizes := []int{1 << 10, 1 << 12, 1 << 14}
	if opt.Quick {
		sizes = []int{1 << 7, 1 << 9}
	}
	for _, sys := range []System{SystemLBL, SystemTEE} {
		for _, n := range sizes {
			wl := workload.Config{NumKeys: n, ValueSize: paperValueSize, WriteFraction: 0.5, Seed: 4}
			res, err := Measure(
				Config{System: sys, Link: netsim.Oregon, ValueSize: wl.ValueSize, LBLMode: core.LBLPointPermute},
				wl, opt.conc(), opt.ops(),
			)
			if err != nil {
				return nil, fmt.Errorf("%s @N=%d: %w", sys, n, err)
			}
			t.AddRow(fmt.Sprint(n), string(sys), fmtMS(res.Latency.Mean), fmtTput(res.Throughput))
		}
	}
	t.Notes = append(t.Notes, "paper: flat for TEE; LBL degrades ~11% only at 2^22 objects (memory pressure)")
	return t, nil
}

var fig3aClaim = Claim{
	Statement: "throughput scales near-linearly with proxy/server pairs: TEE-ORTOA's speedup at s pairs is at least 0.8·s (paper: ~5x at 5 for both protocols; LBL-ORTOA's is bounded by the cores it runs on)",
	Check: func(t *Table) error {
		tee, err := t.series("speedup", "system", string(SystemTEE))
		if err != nil {
			return err
		}
		shards, err := t.series("shards", "system", string(SystemTEE))
		if err != nil {
			return err
		}
		for i, s := range shards {
			if tee[i] < 0.8*s {
				return fmt.Errorf("%s's speedup at %.0f pairs is %.2fx", SystemTEE, s, tee[i])
			}
		}
		return nil
	},
}

// Fig3a reproduces Figure 3a: near-linear scaling as proxy/server
// pairs (shards) grow 1→5 with client load scaled alongside.
func Fig3a(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig3a",
		Title:   "Scaling proxy/server pairs (Oregon link, 160B values, 32·s clients)",
		Columns: []string{"shards", "system", "mean-lat(ms)", "tput(ops/s)", "speedup"},
	}
	shardCounts := []int{1, 2, 3, 4, 5}
	if opt.Quick {
		shardCounts = []int{1, 2}
	}
	for _, sys := range []System{SystemLBL, SystemTEE} {
		var base float64
		for _, s := range shardCounts {
			wl := workload.Config{NumKeys: opt.keys(), ValueSize: paperValueSize, WriteFraction: 0.5, Seed: 5}
			res, err := Measure(
				Config{System: sys, Link: netsim.Oregon, ValueSize: wl.ValueSize, Shards: s, LBLMode: core.LBLPointPermute},
				wl, opt.conc()*s, opt.ops(),
			)
			if err != nil {
				return nil, fmt.Errorf("%s @%d shards: %w", sys, s, err)
			}
			if s == shardCounts[0] {
				base = res.Throughput
			}
			t.AddRow(fmt.Sprint(s), string(sys), fmtMS(res.Latency.Mean), fmtTput(res.Throughput),
				fmt.Sprintf("%.2fx", res.Throughput/base))
		}
	}
	t.Notes = append(t.Notes, "paper: ~5x throughput at 5 shards, latency flat")
	return t, nil
}

var fig3dClaim = Claim{
	Statement: "with the server in London, LBL-ORTOA out-serves 2RTT at 300 B: at least 1.3x its throughput (paper: ~1.7x)",
	Check: func(t *Table) error {
		tput, err := t.systems("tput(ops/s)", SystemLBL, SystemBaseline)
		if err != nil {
			return err
		}
		if r := tput[SystemLBL][0] / tput[SystemBaseline][0]; r < 1.3 {
			return fmt.Errorf("%s's throughput is %.2fx 2RTT's", SystemLBL, r)
		}
		return nil
	},
}

// Fig3d reproduces Figure 3d: a GDPR-style placement (server in
// London, 300 B objects) where the long link makes the one-round
// protocol win despite large messages.
func Fig3d(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig3d",
		Title:   "EU-resident server, 300B objects (GDPR scenario)",
		Columns: []string{"system", "mean-lat(ms)", "tput(ops/s)"},
	}
	wl := workload.Config{NumKeys: opt.keys(), ValueSize: 300, WriteFraction: 0.5, Seed: 8}
	results, err := measureSystems([]System{SystemLBL, SystemBaseline}, netsim.London, wl, opt)
	if err != nil {
		return nil, err
	}
	for i, sys := range []System{SystemLBL, SystemBaseline} {
		t.AddRow(string(sys), fmtMS(results[i].Latency.Mean), fmtTput(results[i].Throughput))
	}
	if results[1].Throughput > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("LBL throughput %.2fx of baseline (paper: ~1.7x with c=147.7ms)",
			results[0].Throughput/results[1].Throughput))
	}
	return t, nil
}

var fig4Claim = Claim{
	Statement: "on all three dataset stand-ins both one-round protocols out-serve 2RTT: at least 1.3x its throughput (paper: LBL 1.7–1.9x, TEE ~3.2x)",
	Check: func(t *Table) error {
		ratios, err := t.systems("tput vs 2RTT", SystemLBL, SystemTEE)
		if err != nil {
			return err
		}
		for _, sys := range []System{SystemLBL, SystemTEE} {
			for i, r := range ratios[sys] {
				if r < 1.3 {
					return fmt.Errorf("%s's throughput is %.2fx 2RTT's on dataset %d", sys, r, i+1)
				}
			}
		}
		return nil
	},
}

// Fig4 reproduces Figure 4: all three systems on the three real-world
// dataset stand-ins (EHR 10 B, SmallBank 50 B, e-commerce 40 B).
func Fig4(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "Real-world datasets (Oregon link)",
		Columns: []string{"dataset", "value(B)", "system", "mean-lat(ms)", "tput(ops/s)", "tput vs 2RTT"},
	}
	for _, ds := range workload.Datasets(opt.keys()) {
		systems := []System{SystemLBL, SystemTEE, SystemBaseline}
		results := make([]Result, len(systems))
		for i, sys := range systems {
			// Dataset keys are not the synthetic key-%08d space, so
			// drive the workload over the dataset's own keys.
			res, err := measureDataset(sys, ds, opt)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", ds.Name, sys, err)
			}
			results[i] = res
		}
		base := results[2].Throughput
		for i, sys := range systems {
			ratio := "-"
			if base > 0 && sys != SystemBaseline {
				ratio = fmt.Sprintf("%.2fx", results[i].Throughput/base)
			}
			t.AddRow(ds.Name, fmt.Sprint(ds.ValueSize), string(sys), fmtMS(results[i].Latency.Mean), fmtTput(results[i].Throughput), ratio)
		}
	}
	t.Notes = append(t.Notes, "paper: TEE ~3.2x baseline throughput; LBL 1.7-1.9x depending on value size")
	return t, nil
}

// measureDataset runs a 50/50 read-write workload over a dataset's own
// key space.
func measureDataset(sys System, ds workload.Dataset, opt Options) (Result, error) {
	data := ds.Data()
	cluster, err := NewCluster(Config{
		System: sys, Link: netsim.Oregon, ValueSize: ds.ValueSize,
		LBLMode: core.LBLPointPermute, ConnsPerShard: min(opt.conc(), 64), Data: data,
	})
	if err != nil {
		return Result{}, err
	}
	defer cluster.Close()
	return RunKeyed(cluster, ds.Records, opt.conc(), opt.ops(), ds.ValueSize)
}
