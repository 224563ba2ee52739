package harness

import (
	"fmt"
	"sort"
)

// An Experiment regenerates one table or figure of the paper and states
// the claim that table must bear out.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) (*Table, error)
	Claim       Claim
}

// A Claim is what an experiment's result promises — the paper's
// statement, or for a fault drill the system's — in one sentence, with a
// predicate over the experiment's own table that fails when the table
// does not bear it out. Claims are about shape (who wins, what stays
// flat, where a minimum or a crossover falls), so they hold at smoke
// scale as well as at full scale; the numbers themselves are
// EXPERIMENTS.md's and the repository benchmark's. An experiment that
// audits itself as it runs has no predicate: Run's error is its verdict.
type Claim struct {
	Statement string
	Check     func(*Table) error
}

// Experiments lists every reproducible result, in the paper's order.
var Experiments = []Experiment{
	{"table2", "datacenter RTT configuration (Table 2)", Table2, table2Claim},
	{"fig2a", "ORTOA vs 2RTT across server locations (Fig 2a)", Fig2a, fig2aClaim},
	{"fig2b", "increasing concurrency (Fig 2b)", Fig2b, fig2bClaim},
	{"fig2c", "varying write percentage (Fig 2c)", Fig2c, fig2cClaim},
	{"fig2d", "varying database size (Fig 2d)", Fig2d, fig2dClaim},
	{"fig3a", "scaling proxy/server pairs (Fig 3a)", Fig3a, fig3aClaim},
	{"fig3b", "varying value size vs baseline, with LBL's latency breakdown from its traced stage clock (Figs 3b, 3c)", ValueSizeSweep, fig3bClaim},
	{"fig3d", "EU server, 300B objects (Fig 3d)", Fig3d, fig3dClaim},
	{"fig4", "real-world datasets (Fig 4)", Fig4, fig4Claim},
	{"fhe-noise", "FHE noise growth to failure (§3.3)", FHENoise, fheNoiseClaim},
	{"cost", "dollar-cost model (§6.3.3)", CostModel, costClaim},
	{"fig6", "storage/communication overhead factors (appendix Fig 6)", Fig6Factors, fig6Claim},
	{"ablation-lbl", "LBL variant ablation (§10, extension)", LBLModeAblation, lblModeClaim},
	{"ablation-tee", "TEE transition-cost sensitivity (§6.2.1, extension)", EnclaveCostAblation, enclaveCostClaim},
	{"ablation-zipf", "LBL-ORTOA under Zipfian key skew (extension)", ZipfAblation, zipfClaim},
	{"chaos", "mixed workload under injected transport faults (robustness extension)", Chaos, chaosClaim},
	{"failover", "multi-proxy kill drill: peers serve a killed proxy's keys (robustness extension)", Failover, failoverClaim},
	{"overload", "overload shedding: goodput and bounded latency at 10x offered load (robustness extension)", Overload, overloadClaim},
	{"crash", "repeated kill/restart under durable-on-ack group commit (robustness extension)", Crash, crashClaim},
	{"attack-snapshot", "multi-snapshot adversary vs plain store and ORTOA (§1)", SnapshotAttack, snapshotClaim},
	{"stream", "requests cut under a frame budget, reset mid-request (robustness extension)", Stream, streamClaim},
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// Verify runs e and judges its claim. The error is Run's if it failed,
// else the predicate's; the table is returned whenever Run made one.
func (e Experiment) Verify(opt Options) (*Table, error) {
	t, err := e.Run(opt)
	if err == nil && e.Claim.Check != nil {
		err = e.Claim.Check(t)
	}
	return t, err
}

// A Verdict is one experiment's line of the reproduction checklist: its
// claim held when Err is nil.
type Verdict struct {
	Experiment
	Err error
}

// Checklist is the reproduction checklist of verdicts: each
// experiment's claim, marked ✓, or ✗ with what refuted it.
func Checklist(verdicts []Verdict) *Table {
	t := &Table{
		ID:      "checklist",
		Title:   "Reproduction checklist: each experiment's claim against its own table",
		Columns: []string{"experiment", "claim", "verdict"},
	}
	for _, v := range verdicts {
		mark := "✓"
		if v.Err != nil {
			mark = "✗ " + v.Err.Error()
		}
		t.AddRow(v.ID, v.Claim.Statement, mark)
	}
	return t
}
