package harness

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/fhe"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/workload"
)

var table2Claim = Claim{
	Statement: "the simulated links carry Table 2's RTTs: Oregon 21.84, N. Virginia 62.06, London 147.73, Mumbai 230.3 ms",
	Check: func(t *Table) error {
		rtts, err := t.series("rtt(ms)", "", "")
		if err != nil {
			return err
		}
		want := []float64{21.84, 62.06, 147.73, 230.3}
		if len(rtts) != len(want) {
			return fmt.Errorf("%d locations, Table 2 has %d", len(rtts), len(want))
		}
		for i, rtt := range rtts {
			if math.Abs(rtt-want[i]) > 0.05 {
				return fmt.Errorf("%s's RTT is %.1f ms, Table 2's %.2f", t.Rows[i][0], rtt, want[i])
			}
		}
		return nil
	},
}

// Table2 reports the datacenter RTT configuration (Table 2 of the
// paper), as wired into netsim.
func Table2(Options) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "RTT latencies from California to server locations (ms)",
		Columns: []string{"location", "rtt(ms)", "bandwidth(MiB/s)"},
	}
	for _, loc := range netsim.Locations {
		t.AddRow(loc.Name, fmtMS(loc.Link.RTT), fmt.Sprint(loc.Link.Bandwidth>>20))
	}
	return t, nil
}

var fheNoiseClaim = Claim{
	Statement: "FHE-ORTOA's noise budget runs out: reads of one object stop decrypting between the 8th and the 14th access (§3.3: about 10)",
	Check: func(t *Table) error {
		// The experiment stops at the first read that fails.
		failed, err := t.series("access", "decrypts-ok", "false")
		if err != nil {
			return fmt.Errorf("every one of %d reads decrypted", len(t.Rows))
		}
		if failed[0] < 8 || failed[0] > 14 {
			return fmt.Errorf("decryption failed at access %.0f", failed[0])
		}
		return nil
	},
}

// FHENoise reproduces the §3.3 finding: repeated Proc applications to
// one object exhaust the BFV noise budget within a small number of
// accesses, making FHE-ORTOA impractical. It runs the full protocol
// (client + server over a loopback link) and reports the budget after
// each access until decryption degrades.
func FHENoise(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fhe-noise",
		Title:   "FHE-ORTOA noise budget vs accesses to one object (§3.3)",
		Columns: []string{"access", "ct-degree", "noise-budget(bits)", "ct-size(B)", "decrypts-ok"},
	}
	// 260-bit modulus: enough budget for roughly the paper's ~10
	// accesses before decryption degrades (each access costs ~24 bits).
	n, qBits := 512, 260
	if opt.Quick {
		n, qBits = 64, 220
	}
	params, err := fhe.NewParameters(n, qBits)
	if err != nil {
		return nil, err
	}
	valueSize := min(paperValueSize, params.PlaintextCapacity()-2)
	rig, err := newFHERig(core.FHEConfig{Params: params, MaxDegree: 64}, valueSize)
	if err != nil {
		return nil, err
	}
	defer rig.Close()

	// Read the object, up to 20 times, until a read no longer decrypts
	// to its value.
	for access := 1; access <= 20; access++ {
		st, err := rig.access()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(access), st.degree, fmt.Sprint(st.budget), fmt.Sprint(st.size), fmt.Sprint(st.ok))
		if !st.ok {
			break
		}
	}
	t.Notes = append(t.Notes,
		"paper: decryption fails after ~10 accesses with SEAL's N=32768 defaults",
		fmt.Sprintf("ciphertext expansion: %.0fx (paper: ~225x for SEAL)", params.CiphertextExpansion()))
	return t, nil
}

// Google Cloud prices used by §6.3.3.
const (
	usdPerGBMonth      = 0.02
	usdPerGBNetwork    = 0.12
	usdPerMInvocations = 0.4
	usdPer100msCPU     = 0.00000165
	computeMSPerOp     = 2.0 // "ORTOA needs 2 ms to encrypt/decrypt labels"
)

// CostEstimate is the §6.3.3 dollar-cost model, evaluated over our
// exact wire/record sizes.
type CostEstimate struct {
	Objects         int
	StorageGB       float64
	StorageUSDMonth float64
	NetworkGBPer1M  float64
	NetworkUSDPer1M float64
	ComputeUSDPer1M float64
	PerRequestUSD   float64
	RequestBytes    int
	ResponseBytes   int
	RecordBytes     int
	ProxyCounterMB  float64
}

// EstimateCost evaluates the model for an LBL configuration and
// database size.
func EstimateCost(cfg core.LBLConfig, objects int) CostEstimate {
	e := CostEstimate{Objects: objects}
	e.RecordBytes = cfg.ServerBytesPerValue() + prf.Size // record + encoded key
	e.RequestBytes = cfg.RequestBytesPerAccess()
	e.ResponseBytes = cfg.ResponseBytesPerAccess()
	e.StorageGB = float64(e.RecordBytes) * float64(objects) / 1e9
	e.StorageUSDMonth = e.StorageGB * usdPerGBMonth
	e.NetworkGBPer1M = float64(e.RequestBytes+e.ResponseBytes) * 1e6 / 1e9
	e.NetworkUSDPer1M = e.NetworkGBPer1M * usdPerGBNetwork
	e.ComputeUSDPer1M = usdPerMInvocations + (computeMSPerOp*1e6/100)*usdPer100msCPU
	e.PerRequestUSD = (e.NetworkUSDPer1M + e.ComputeUSDPer1M) / 1e6
	e.ProxyCounterMB = float64(objects) * 8 / 1e6
	return e
}

var costClaim = Claim{
	Statement: "an access costs within 10x of the paper's $0.000023, and bandwidth, not compute, dominates that cost (§6.3.3: $18.3 against $3.7 per 1M accesses)",
	Check: func(t *Table) error {
		cost := map[string]float64{}
		for _, q := range []string{"cost per request", "bandwidth cost per 1M", "compute cost per 1M"} {
			v, err := t.series("value", "quantity", q)
			if err != nil {
				return err
			}
			cost[q] = v[0]
		}
		if c := cost["cost per request"]; c < 0.0000023 || c > 0.00023 {
			return fmt.Errorf("an access costs $%.7f", c)
		}
		if bw, cpu := cost["bandwidth cost per 1M"], cost["compute cost per 1M"]; bw <= cpu {
			return fmt.Errorf("bandwidth costs $%.2f per 1M accesses, compute $%.2f", bw, cpu)
		}
		return nil
	},
}

// CostModel renders the §6.3.3 analysis for the paper's configuration:
// r=128, ℓ=1280 (160 B values), y=2 point-and-permute, 1M objects.
func CostModel(opt Options) (*Table, error) {
	objects := 1_000_000
	if opt.Quick {
		objects = 100_000
	}
	cfg := core.LBLConfig{ValueSize: paperValueSize, Mode: core.LBLPointPermute}
	e := EstimateCost(cfg, objects)
	t := &Table{
		ID:      "cost",
		Title:   fmt.Sprintf("LBL-ORTOA dollar-cost estimate (%d objects, 160B values, y=2)", objects),
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("server record size", fmt.Sprintf("%d B", e.RecordBytes))
	t.AddRow("request size", fmt.Sprintf("%d B", e.RequestBytes))
	t.AddRow("response size", fmt.Sprintf("%d B", e.ResponseBytes))
	t.AddRow("server storage", fmt.Sprintf("%.2f GB", e.StorageGB))
	t.AddRow("storage cost", fmt.Sprintf("$%.2f /month", e.StorageUSDMonth))
	t.AddRow("network per 1M accesses", fmt.Sprintf("%.1f GB", e.NetworkGBPer1M))
	t.AddRow("bandwidth cost per 1M", fmt.Sprintf("$%.2f", e.NetworkUSDPer1M))
	t.AddRow("compute cost per 1M", fmt.Sprintf("$%.2f", e.ComputeUSDPer1M))
	t.AddRow("cost per request", fmt.Sprintf("$%.7f", e.PerRequestUSD))
	t.AddRow("proxy counter state", fmt.Sprintf("%.1f MB", e.ProxyCounterMB))
	t.Notes = append(t.Notes,
		"paper (§6.3.3): $1.52/month storage, $18.3 bandwidth + $3.7 compute per 1M accesses, $0.000023/request",
		"our sizes include each table entry's recognition tag and the framing; the paper prices idealized 128-bit ciphertexts")
	return t, nil
}

var fig6Claim = Claim{
	Statement: "y = 2 minimises the total overhead f_s + f_c = 1/y + 2^y/y (appendix Fig 6)",
	Check: func(t *Table) error {
		ys, err := t.series("y", "", "")
		if err != nil {
			return err
		}
		total, err := t.series("total", "", "")
		if err != nil {
			return err
		}
		if best := ys[slices.Index(total, slices.Min(total))]; best != 2 {
			return fmt.Errorf("y = %.0f minimises the total overhead", best)
		}
		return nil
	},
}

// Fig6Factors reproduces the appendix Figure 6 trade-off: storage
// factor f_s = 1/y, communication factor f_c = 2^y/y, and the total,
// showing the optimum at y=2.
func Fig6Factors(Options) (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Storage vs communication overhead factors across y (appendix §10.1)",
		Columns: []string{"y", "f_s (storage)", "f_c (comm)", "total"},
	}
	for y := 1; y <= 6; y++ {
		fs := 1.0 / float64(y)
		fc := float64(int(1)<<uint(y)) / float64(y)
		t.AddRow(fmt.Sprint(y), fmt.Sprintf("%.3f", fs), fmt.Sprintf("%.3f", fc), fmt.Sprintf("%.3f", fs+fc))
	}
	return t, nil
}

var lblModeClaim = Claim{
	Statement: "space-opt halves basic's record (§10.1), and point-and-permute has the server open exactly ℓ/y entries per access, one per group (§10.2)",
	Check: func(t *Table) error {
		record := map[core.LBLMode]float64{}
		for _, m := range []core.LBLMode{core.LBLBasic, core.LBLSpaceOpt} {
			v, err := t.series("record(B)", "mode", m.String())
			if err != nil {
				return err
			}
			record[m] = v[0]
		}
		if r := record[core.LBLSpaceOpt] / record[core.LBLBasic]; r > 0.55 {
			return fmt.Errorf("space-opt's record is %.2fx basic's", r)
		}
		opened, err := t.series("decrypts/op", "mode", core.LBLPointPermute.String())
		if err != nil {
			return err
		}
		if groups := (core.LBLConfig{ValueSize: paperValueSize, Mode: core.LBLPointPermute}).Groups(); opened[0] != float64(groups) {
			return fmt.Errorf("point-and-permute opens %.0f entries per access, ℓ/y = %d", opened[0], groups)
		}
		return nil
	},
}

// LBLModeAblation compares the three LBL variants' request sizes,
// record sizes, and server decrypt work — the design choices §10
// motivates. It is an extension beyond the paper's figures.
func LBLModeAblation(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation-lbl",
		Title:   "LBL variant ablation (Oregon link, 160B values)",
		Columns: []string{"mode", "record(B)", "request(B)", "mean-lat(ms)", "tput(ops/s)", "decrypts/op"},
	}
	wl := workloadDefaults(opt)
	for _, mode := range []core.LBLMode{core.LBLBasic, core.LBLSpaceOpt, core.LBLPointPermute} {
		cfg := core.LBLConfig{ValueSize: paperValueSize, Mode: mode}
		// The decrypt count is the server's own exported counter, which
		// outlives the cluster Measure tears down.
		reg := obs.NewRegistry()
		res, err := Measure(Config{
			System: SystemLBL, Link: netsim.Oregon, ValueSize: paperValueSize, LBLMode: mode, Metrics: reg,
		}, wl, opt.conc(), opt.ops())
		if err != nil {
			return nil, fmt.Errorf("%v: %w", mode, err)
		}
		decryptsPerOp := float64(reg.Value("ortoa_lbl_server_decrypt_attempts_total")) / float64(res.Ops)
		t.AddRow(mode.String(), fmt.Sprint(cfg.ServerBytesPerValue()), fmt.Sprint(cfg.RequestBytesPerAccess()),
			fmtMS(res.Latency.Mean), fmtTput(res.Throughput), fmt.Sprintf("%.0f", decryptsPerOp))
	}
	t.Notes = append(t.Notes,
		"space-opt halves the record vs basic; point-and-permute halves server decrypts vs space-opt (§10)")
	return t, nil
}

func workloadDefaults(opt Options) workload.Config {
	return workload.Config{NumKeys: opt.keys(), ValueSize: paperValueSize, WriteFraction: 0.5, Seed: 10}
}

var enclaveCostClaim = Claim{
	Statement: "every access pays the enclave transition: at the highest cost TEE-ORTOA's mean latency exceeds its zero-cost latency by at least half that cost (§6.2.1)",
	Check: func(t *Table) error {
		lat, err := t.series("mean-lat(ms)", "", "")
		if err != nil {
			return err
		}
		top := t.Rows[len(t.Rows)-1][0]
		cost, err := time.ParseDuration(top)
		if err != nil {
			return err
		}
		if rise := lat[len(lat)-1] - lat[0]; rise < cost.Seconds()*1000/2 {
			return fmt.Errorf("a %s transition raises mean latency by %.1f ms", top, rise)
		}
		return nil
	},
}

// EnclaveCostAblation measures TEE-ORTOA latency as the simulated
// enclave transition cost grows — the §6.2.1 observation that enclave
// paging dominates past the core count.
func EnclaveCostAblation(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation-tee",
		Title:   "TEE enclave transition-cost sensitivity (Oregon link, 160B values)",
		Columns: []string{"ecall-cost", "mean-lat(ms)", "tput(ops/s)"},
	}
	costs := []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}
	if opt.Quick {
		costs = []time.Duration{0, 5 * time.Millisecond}
	}
	wl := workloadDefaults(opt)
	for _, cost := range costs {
		res, err := Measure(Config{
			System: SystemTEE, Link: netsim.Oregon, ValueSize: paperValueSize,
			EnclaveTransition: cost,
		}, wl, opt.conc(), opt.ops())
		if err != nil {
			return nil, err
		}
		t.AddRow(cost.String(), fmtMS(res.Latency.Mean), fmtTput(res.Throughput))
	}
	return t, nil
}

var zipfClaim = Claim{
	Statement: "under Zipf(0.99) skew a hot key's accesses share its next round trip instead of queueing for one each, so LBL-ORTOA's mean latency stays within 2x uniform's",
	Check: func(t *Table) error {
		lat, err := t.series("mean-lat(ms)", "", "")
		if err != nil {
			return err
		}
		if r := lat[1] / lat[0]; r > 2 {
			return fmt.Errorf("skew raises mean latency %.2fx", r)
		}
		return nil
	},
}

// ZipfAblation contrasts LBL-ORTOA under uniform vs Zipfian key
// popularity (an extension: the paper evaluates uniform only). Hot
// keys stress LBL's per-key access-counter serialization — concurrent
// accesses to one object must not interleave, so they wait for the key
// and then share one round trip as a chain: skew costs the wait for the
// round in flight, not a round trip per access.
func ZipfAblation(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation-zipf",
		Title:   "LBL-ORTOA under key skew (Oregon link, 160B values)",
		Columns: []string{"distribution", "mean-lat(ms)", "p99-lat(ms)", "tput(ops/s)"},
	}
	for _, dist := range []struct {
		name string
		d    workload.Distribution
	}{{"uniform", workload.Uniform}, {"zipf(0.99)", workload.Zipfian}} {
		wl := workload.Config{
			NumKeys: opt.keys(), ValueSize: paperValueSize,
			WriteFraction: 0.5, Distribution: dist.d, Seed: 12,
		}
		res, err := Measure(Config{
			System: SystemLBL, Link: netsim.Oregon, ValueSize: paperValueSize,
			LBLMode: core.LBLPointPermute,
		}, wl, opt.conc(), opt.ops())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dist.name, err)
		}
		t.AddRow(dist.name, fmtMS(res.Latency.Mean), fmtMS(res.Latency.P99), fmtTput(res.Throughput))
	}
	t.Notes = append(t.Notes,
		"accesses to a hot key wait for its round in flight and follow it as one chain (§5.2's counter schedule): skew lifts the tail by that wait, not by a round trip per queued access")
	return t, nil
}
