package harness

import (
	"fmt"
	"strings"
	"testing"

	"ortoa/internal/core"
)

// tab builds a hand-made table: columns and each row are "|"-separated.
func tab(id, columns string, rows ...string) *Table {
	t := &Table{ID: id, Columns: strings.Split(columns, "|")}
	for _, r := range rows {
		t.AddRow(strings.Split(r, "|")...)
	}
	return t
}

// A claimCase is a hand-made table for one experiment's predicate, laid
// out as the experiment lays out its own: one that bears the claim out
// (refutes empty), or one that contradicts it at one point, with a
// fragment of the error that must name what refuted it.
type claimCase struct {
	name    string
	table   *Table
	refutes string
}

// Column layouts of the experiments whose tables the cases repeat.
const (
	fig2aCols = "location|system|mean-lat(ms)|p99-lat(ms)|tput(ops/s)"
	fig2bCols = "clients|system|mean-lat(ms)|tput(ops/s)"
	fig2cCols = "write%|system|mean-lat(ms)|tput(ops/s)"
	fig2dCols = "N|system|mean-lat(ms)|tput(ops/s)"
	fig3aCols = "shards|system|mean-lat(ms)|tput(ops/s)|speedup"
	fig3bCols = "value(B)|system|mean-lat(ms)|tput(ops/s)|rtt(ms)|comm-ovhd(ms)|compute(ms)|LBL wins (c>p+o)"
	fig4Cols  = "dataset|value(B)|system|mean-lat(ms)|tput(ops/s)|tput vs 2RTT"
	costCols  = "quantity|value"
	fig6Cols  = "y|f_s (storage)|f_c (comm)|total"
	lblCols   = "mode|record(B)|request(B)|mean-lat(ms)|tput(ops/s)|decrypts/op"
	teeCols   = "ecall-cost|mean-lat(ms)|tput(ops/s)"
	zipfCols  = "distribution|mean-lat(ms)|p99-lat(ms)|tput(ops/s)"
	snapCols  = "store|ops|writes|attack-accuracy|write-precision"
)

// fheNoiseTable is the fhe-noise table of a run whose reads decrypt up to
// access last-1 and, when fails, stop decrypting at access last.
func fheNoiseTable(last int, fails bool) *Table {
	t := tab("fhe-noise", "access|ct-degree|noise-budget(bits)|ct-size(B)|decrypts-ok")
	for a := 1; a <= last; a++ {
		ok := a < last || !fails
		t.AddRow(fmt.Sprint(a), fmt.Sprint(a+1), fmt.Sprint(max(0, 240-24*a)), fmt.Sprint(4096*(a+1)), fmt.Sprint(ok))
	}
	return t
}

// fig3bTable is the value-size sweep's table at 10, 160 and 300 B, from
// three cells per size: LBL's "mean|rtt|comm-ovhd|compute|wins", then
// TEE's and 2RTT's mean latency.
func fig3bTable(cells ...string) *Table {
	t := tab("fig3b", fig3bCols)
	for i, size := range []string{"10", "160", "300"} {
		lbl := strings.SplitN(cells[3*i], "|", 2)
		t.AddRow(append([]string{size, string(SystemLBL), lbl[0], "900"}, strings.Split(lbl[1], "|")...)...)
		t.AddRow(size, string(SystemTEE), cells[3*i+1], "1300", "-", "-", "-", "-")
		t.AddRow(size, string(SystemBaseline), cells[3*i+2], "700", "-", "-", "-", "-")
	}
	return t
}

// lblModeTable is the ablation-lbl table with space-opt's record and
// point-and-permute's decrypts per access as given.
func lblModeTable(spaceOptRecord, opened int) *Table {
	row := func(m core.LBLMode, record, decrypts int) string {
		return fmt.Sprintf("%s|%d|41000|30.0|900|%d", m, record, decrypts)
	}
	return tab("ablation-lbl", lblCols,
		row(core.LBLBasic, 41000, 2*paperGroups()),
		row(core.LBLSpaceOpt, spaceOptRecord, 2*paperGroups()),
		row(core.LBLPointPermute, 20520, opened))
}

// paperGroups is ℓ/y at the evaluation's value size under point-and-permute.
func paperGroups() int {
	return core.LBLConfig{ValueSize: paperValueSize, Mode: core.LBLPointPermute}.Groups()
}

// claimCases holds, per experiment with a predicate, the tables the
// predicate must accept and those it must refute.
var claimCases = map[string][]claimCase{
	"table2": {
		{"holds", tab("table2", "location|rtt(ms)|bandwidth(MiB/s)",
			"Oregon|21.8|100", "N.Virginia|62.1|100", "London|147.7|100", "Mumbai|230.3|100"), ""},
		{"a location missing", tab("table2", "location|rtt(ms)|bandwidth(MiB/s)",
			"Oregon|21.8|100", "N.Virginia|62.1|100", "London|147.7|100"), "3 locations, Table 2 has 4"},
		{"an RTT off", tab("table2", "location|rtt(ms)|bandwidth(MiB/s)",
			"Oregon|21.8|100", "N.Virginia|62.1|100", "London|150.0|100", "Mumbai|230.3|100"), "London's RTT is 150.0 ms"},
	},
	"fig2a": {
		{"holds", tab("fig2a", fig2aCols,
			"Oregon|LBL-ORTOA|30.0|40.0|1000", "Oregon|TEE-ORTOA|25.0|35.0|1200", "Oregon|2RTT|50.0|60.0|600",
			"N.Virginia|LBL-ORTOA|70.0|80.0|450", "N.Virginia|TEE-ORTOA|65.0|75.0|480", "N.Virginia|2RTT|130.0|140.0|240",
			"London|LBL-ORTOA|160.0|170.0|200", "London|TEE-ORTOA|150.0|160.0|210", "London|2RTT|300.0|310.0|105",
			"Mumbai|LBL-ORTOA|240.0|250.0|130", "Mumbai|TEE-ORTOA|232.0|242.0|135", "Mumbai|2RTT|465.0|475.0|68"), ""},
		{"2RTT barely slower far away", tab("fig2a", fig2aCols,
			"Oregon|LBL-ORTOA|30.0|40.0|1000", "Oregon|TEE-ORTOA|25.0|35.0|1200", "Oregon|2RTT|50.0|60.0|600",
			"N.Virginia|LBL-ORTOA|70.0|80.0|450", "N.Virginia|TEE-ORTOA|65.0|75.0|480", "N.Virginia|2RTT|130.0|140.0|240",
			"London|LBL-ORTOA|160.0|170.0|200", "London|TEE-ORTOA|150.0|160.0|210", "London|2RTT|300.0|310.0|105",
			"Mumbai|LBL-ORTOA|240.0|250.0|130", "Mumbai|TEE-ORTOA|232.0|242.0|135", "Mumbai|2RTT|250.0|260.0|125"),
			"2RTT's mean latency is 1.04x LBL-ORTOA's at Mumbai"},
		{"2RTT past the band", tab("fig2a", fig2aCols,
			"Oregon|LBL-ORTOA|30.0|40.0|1000", "Oregon|TEE-ORTOA|15.0|25.0|2000", "Oregon|2RTT|50.0|60.0|600"),
			"2RTT's mean latency is 3.33x TEE-ORTOA's at Oregon"},
		{"a protocol missing", tab("fig2a", fig2aCols,
			"Oregon|LBL-ORTOA|30.0|40.0|1000", "Oregon|2RTT|50.0|60.0|600"), `no mean-lat(ms) rows for system "TEE-ORTOA"`},
	},
	"fig2b": {
		{"holds", tab("fig2b", fig2bCols,
			"1|LBL-ORTOA|25.0|40", "4|LBL-ORTOA|26.0|150", "8|LBL-ORTOA|27.0|300",
			"1|TEE-ORTOA|22.0|45", "4|TEE-ORTOA|23.0|170", "8|TEE-ORTOA|23.0|350"), ""},
		{"LBL saturates", tab("fig2b", fig2bCols,
			"1|LBL-ORTOA|25.0|40", "4|LBL-ORTOA|57.0|70", "8|LBL-ORTOA|80.0|100",
			"1|TEE-ORTOA|22.0|45", "4|TEE-ORTOA|23.0|170", "8|TEE-ORTOA|23.0|350"),
			"LBL-ORTOA's throughput grows only 2.50x"},
		{"TEE saturates", tab("fig2b", fig2bCols,
			"1|LBL-ORTOA|25.0|40", "4|LBL-ORTOA|26.0|150", "8|LBL-ORTOA|27.0|300",
			"1|TEE-ORTOA|22.0|45", "4|TEE-ORTOA|44.0|90", "8|TEE-ORTOA|66.0|120"),
			"TEE-ORTOA's throughput grows only 2.67x"},
	},
	"fig2c": {
		{"holds", tab("fig2c", fig2cCols,
			"0|LBL-ORTOA|30.1|260", "50|LBL-ORTOA|30.5|258", "100|LBL-ORTOA|29.8|262",
			"0|TEE-ORTOA|25.0|310", "50|TEE-ORTOA|25.3|306", "100|TEE-ORTOA|24.9|312"), ""},
		{"writes cost LBL more", tab("fig2c", fig2cCols,
			"0|LBL-ORTOA|30.0|260", "50|LBL-ORTOA|36.0|220", "100|LBL-ORTOA|42.0|190",
			"0|TEE-ORTOA|25.0|310", "50|TEE-ORTOA|25.3|306", "100|TEE-ORTOA|24.9|312"),
			"LBL-ORTOA's mean-lat(ms) varies 1.40x"},
		{"reads cost TEE more", tab("fig2c", fig2cCols,
			"0|LBL-ORTOA|30.1|260", "50|LBL-ORTOA|30.5|258", "100|LBL-ORTOA|29.8|262",
			"0|TEE-ORTOA|35.0|220", "50|TEE-ORTOA|30.0|260", "100|TEE-ORTOA|25.0|310"),
			"TEE-ORTOA's mean-lat(ms) varies 1.40x"},
	},
	"fig2d": {
		{"holds", tab("fig2d", fig2dCols,
			"128|LBL-ORTOA|30.0|260", "512|LBL-ORTOA|31.0|255",
			"128|TEE-ORTOA|25.0|310", "512|TEE-ORTOA|25.5|305"), ""},
		{"LBL grows with N", tab("fig2d", fig2dCols,
			"128|LBL-ORTOA|30.0|260", "512|LBL-ORTOA|45.0|175",
			"128|TEE-ORTOA|25.0|310", "512|TEE-ORTOA|25.5|305"),
			"LBL-ORTOA's mean-lat(ms) varies 1.50x"},
	},
	"fig3a": {
		// LBL-ORTOA's speedup is bounded by the cores it runs on; the claim
		// reads TEE-ORTOA's alone.
		{"holds with LBL core-bound", tab("fig3a", fig3aCols,
			"1|LBL-ORTOA|30.0|1000|1.00x", "2|LBL-ORTOA|42.0|1400|1.40x",
			"1|TEE-ORTOA|25.0|1200|1.00x", "2|TEE-ORTOA|26.0|2280|1.90x"), ""},
		{"TEE sublinear", tab("fig3a", fig3aCols,
			"1|LBL-ORTOA|30.0|1000|1.00x", "2|LBL-ORTOA|31.0|1950|1.95x",
			"1|TEE-ORTOA|25.0|1200|1.00x", "2|TEE-ORTOA|33.0|1800|1.50x"),
			"TEE-ORTOA's speedup at 2 pairs is 1.50x"},
	},
	// The value-size sweep: fig3b's rows, with the breakdown columns
	// (rtt, comm-ovhd, compute, the rule's verdict) filled on LBL's.
	"fig3b": {
		{"holds", fig3bTable(
			"25.0|21.8|0.5|2.7|true", "24.0", "45.0",
			"30.0|21.8|4.0|4.2|true", "24.5", "45.5",
			"40.0|21.8|8.0|10.2|true", "24.8", "46.0"), ""},
		{"2RTT ahead at the smallest value", fig3bTable(
			"50.0|21.8|0.5|27.7|false", "24.0", "45.0",
			"30.0|21.8|4.0|4.2|true", "24.5", "45.5",
			"60.0|21.8|8.0|30.2|false", "24.8", "46.0"),
			"2RTT (45.0 ms) beats LBL-ORTOA (50.0 ms) at the smallest value"},
		{"LBL's lead grows with the value", fig3bTable(
			"40.0|21.8|0.5|17.7|true", "24.0", "45.0",
			"30.0|21.8|4.0|4.2|true", "24.5", "45.5",
			"30.0|21.8|8.0|0.2|true", "24.8", "46.0"),
			"lead over 2RTT grows from 5.0 to 16.0 ms"},
		{"TEE grows with the value", fig3bTable(
			"25.0|21.8|0.5|2.7|true", "24.0", "45.0",
			"30.0|21.8|4.0|4.2|true", "28.0", "45.5",
			"40.0|21.8|8.0|10.2|true", "32.0", "46.0"),
			"TEE-ORTOA's latency varies 1.33x across value sizes"},
		{"overhead falls with the value", fig3bTable(
			"25.0|21.8|0.5|2.7|true", "24.0", "45.0",
			"30.0|21.8|4.0|4.2|true", "24.5", "45.5",
			"40.0|21.8|3.0|15.2|true", "24.8", "46.0"),
			"communication overhead falls from 4.0 to 3.0 ms"},
		// A measured o is not clamped: a term that goes negative between
		// sizes is reported as it is, and refutes the claim.
		{"overhead falls below zero between sizes", fig3bTable(
			"25.0|21.8|0.5|2.7|true", "24.0", "45.0",
			"30.0|21.8|-0.3|8.5|true", "24.5", "45.5",
			"40.0|21.8|8.0|10.2|true", "24.8", "46.0"),
			"communication overhead falls from 0.5 to -0.3 ms"},
		{"rule picks 2RTT at the smallest value", fig3bTable(
			"44.0|21.8|0.5|21.7|false", "24.0", "45.0",
			"30.0|21.8|4.0|4.2|true", "24.5", "45.5",
			"45.5|21.8|8.0|15.7|false", "24.8", "46.0"),
			"the rule picks 2RTT at 10 B"},
		{"rule picks LBL where 2RTT was faster", fig3bTable(
			"25.0|21.8|0.5|2.7|true", "24.0", "45.0",
			"30.0|21.8|4.0|4.2|true", "24.5", "45.5",
			"50.0|21.8|8.0|10.2|true", "24.8", "46.0"),
			"the rule picks LBL at 300 B, where 2RTT measured 46.0 ms against LBL's 50.0"},
	},
	"fig3d": {
		{"holds", tab("fig3d", "system|mean-lat(ms)|tput(ops/s)", "LBL-ORTOA|160.0|200", "2RTT|300.0|110"), ""},
		{"LBL barely ahead", tab("fig3d", "system|mean-lat(ms)|tput(ops/s)", "LBL-ORTOA|245.0|130", "2RTT|300.0|110"),
			"LBL-ORTOA's throughput is 1.18x 2RTT's"},
	},
	"fig4": {
		{"holds", tab("fig4", fig4Cols,
			"EHR|10|LBL-ORTOA|26.0|1240|1.80x", "EHR|10|TEE-ORTOA|23.0|2140|3.10x", "EHR|10|2RTT|45.0|690|-",
			"SmallBank|50|LBL-ORTOA|27.0|1200|1.75x", "SmallBank|50|TEE-ORTOA|23.0|2120|3.09x", "SmallBank|50|2RTT|45.0|686|-",
			"e-commerce|40|LBL-ORTOA|26.5|1220|1.77x", "e-commerce|40|TEE-ORTOA|23.0|2130|3.10x", "e-commerce|40|2RTT|45.0|688|-"), ""},
		{"LBL behind 2RTT on one dataset", tab("fig4", fig4Cols,
			"EHR|10|LBL-ORTOA|26.0|1240|1.80x", "EHR|10|TEE-ORTOA|23.0|2140|3.10x", "EHR|10|2RTT|45.0|690|-",
			"SmallBank|50|LBL-ORTOA|50.0|617|0.90x", "SmallBank|50|TEE-ORTOA|23.0|2120|3.09x", "SmallBank|50|2RTT|45.0|686|-",
			"e-commerce|40|LBL-ORTOA|26.5|1220|1.77x", "e-commerce|40|TEE-ORTOA|23.0|2130|3.10x", "e-commerce|40|2RTT|45.0|688|-"),
			"LBL-ORTOA's throughput is 0.90x 2RTT's on dataset 2"},
		{"TEE short of the margin", tab("fig4", fig4Cols,
			"EHR|10|LBL-ORTOA|26.0|1240|1.80x", "EHR|10|TEE-ORTOA|23.0|2140|3.10x", "EHR|10|2RTT|45.0|690|-",
			"SmallBank|50|LBL-ORTOA|27.0|1200|1.75x", "SmallBank|50|TEE-ORTOA|23.0|2120|3.09x", "SmallBank|50|2RTT|45.0|686|-",
			"e-commerce|40|LBL-ORTOA|26.5|1220|1.77x", "e-commerce|40|TEE-ORTOA|38.0|826|1.20x", "e-commerce|40|2RTT|45.0|688|-"),
			"TEE-ORTOA's throughput is 1.20x 2RTT's on dataset 3"},
	},
	"fhe-noise": {
		{"holds", fheNoiseTable(10, true), ""},
		{"every read decrypts", fheNoiseTable(20, false), "every one of 20 reads decrypted"},
		{"budget gone too soon", fheNoiseTable(5, true), "decryption failed at access 5"},
		{"budget lasts too long", fheNoiseTable(16, true), "decryption failed at access 16"},
	},
	"cost": {
		{"holds", tab("cost", costCols,
			"request size|41024 B", "bandwidth cost per 1M|$18.30", "compute cost per 1M|$3.70", "cost per request|$0.0000220"), ""},
		{"an access too dear", tab("cost", costCols,
			"bandwidth cost per 1M|$296.30", "compute cost per 1M|$3.70", "cost per request|$0.0003000"), "an access costs $0.0003000"},
		{"an access too cheap", tab("cost", costCols,
			"bandwidth cost per 1M|$0.60", "compute cost per 1M|$0.40", "cost per request|$0.0000010"), "an access costs $0.0000010"},
		{"compute dominates", tab("cost", costCols,
			"bandwidth cost per 1M|$2.00", "compute cost per 1M|$3.70", "cost per request|$0.0000057"),
			"bandwidth costs $2.00 per 1M accesses, compute $3.70"},
	},
	"fig6": {
		{"holds", tab("fig6", fig6Cols,
			"1|1.000|2.000|3.000", "2|0.500|2.000|2.500", "3|0.333|2.667|3.000",
			"4|0.250|4.000|4.250", "5|0.200|6.400|6.600", "6|0.167|10.667|10.833"), ""},
		{"another y is cheapest", tab("fig6", fig6Cols,
			"1|1.000|2.000|3.000", "2|0.500|2.000|2.500", "3|0.333|2.000|2.333", "4|0.250|4.000|4.250"),
			"y = 3 minimises the total overhead"},
	},
	"ablation-lbl": {
		{"holds", lblModeTable(20520, paperGroups()), ""},
		{"space-opt keeps basic's record", lblModeTable(30750, paperGroups()), "space-opt's record is 0.75x basic's"},
		{"point-and-permute opens every entry", lblModeTable(20520, 2*paperGroups()),
			fmt.Sprintf("point-and-permute opens %d entries per access, ℓ/y = %d", 2*paperGroups(), paperGroups())},
	},
	"ablation-tee": {
		{"holds", tab("ablation-tee", teeCols, "0s|25.0|1280", "5ms|35.0|910"), ""},
		{"transition unpaid", tab("ablation-tee", teeCols, "0s|25.0|1280", "5ms|26.0|1230"),
			"a 5ms transition raises mean latency by 1.0 ms"},
	},
	"ablation-zipf": {
		{"holds", tab("ablation-zipf", zipfCols, "uniform|30.0|45.0|1060", "zipf(0.99)|36.0|70.0|890"), ""},
		{"skew queues a round trip per access", tab("ablation-zipf", zipfCols, "uniform|30.0|45.0|1060", "zipf(0.99)|75.0|300.0|425"),
			"skew raises mean latency 2.50x"},
	},
	"attack-snapshot": {
		{"holds", tab("attack-snapshot", snapCols, "plain-encrypted|40|12|100%|100%", "ORTOA-LBL|40|11|73%|0%"), ""},
		{"plain store not fully read", tab("attack-snapshot", snapCols, "plain-encrypted|40|12|95%|92%", "ORTOA-LBL|40|11|73%|0%"),
			"95% accurate on the plain store"},
		{"ORTOA fully read", tab("attack-snapshot", snapCols, "plain-encrypted|40|12|100%|100%", "ORTOA-LBL|40|11|100%|100%"),
			"100% on ORTOA"},
	},
}

// TestClaimPredicates checks each claim's predicate against hand-made
// tables: it accepts one that bears the claim out and refutes each that
// contradicts it, naming what did. TestEveryExperimentQuick shows that a
// measured table passes; this shows that passing means something — a
// predicate that returned nil for every table would pass the former. It
// ranges over the registry, so a predicate is held to this from the
// change that registers it.
func TestClaimPredicates(t *testing.T) {
	for _, e := range Experiments {
		if e.Claim.Check == nil {
			continue // a self-auditing drill: Run's error is its verdict
		}
		t.Run(e.ID, func(t *testing.T) {
			cases := claimCases[e.ID]
			accepts, refutes := 0, 0
			for _, c := range cases {
				if c.refutes == "" {
					accepts++
				} else {
					refutes++
				}
			}
			if accepts == 0 || refutes == 0 {
				t.Fatalf("%d tables that bear the claim out and %d that contradict it; want at least one of each", accepts, refutes)
			}
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					err := e.Claim.Check(c.table)
					switch {
					case c.refutes == "" && err != nil:
						t.Errorf("refuted a table that bears the claim out: %v", err)
					case c.refutes != "" && err == nil:
						t.Errorf("accepted a table that contradicts the claim (%s)", c.refutes)
					case c.refutes != "" && !strings.Contains(err.Error(), c.refutes):
						t.Errorf("refuted with %q, want it to say %q", err, c.refutes)
					}
				})
			}
		})
	}
	for id := range claimCases {
		if e, err := Lookup(id); err != nil || e.Claim.Check == nil {
			t.Errorf("tables for %q, which is no experiment with a predicate", id)
		}
	}
}

// TestTableSeries pins how a predicate reads its table back: column by
// name, rows filtered by another column, and cells stripped of the units
// the experiments print.
func TestTableSeries(t *testing.T) {
	tbl := tab("x", "system|cost|ratio|share|size",
		"LBL-ORTOA|$0.0000230|1.94x|70%|10.9 GB",
		"2RTT|$18.30|0.50x|100%|512 B",
		"TEE-ORTOA|-|3.10x|5%|1 KB")
	for _, c := range []struct {
		name, col, by, key string
		want               []float64
		err                string
	}{
		{"every row in order", "ratio", "", "", []float64{1.94, 0.5, 3.1}, ""},
		{"rows of one key", "share", "system", "2RTT", []float64{100}, ""},
		{"dollar amounts", "cost", "system", "LBL-ORTOA", []float64{0.000023}, ""},
		{"a value before its unit", "size", "", "", []float64{10.9, 512, 1}, ""},
		{"no such column", "latency", "", "", nil, `no column "latency"`},
		{"no such filter column", "ratio", "mode", "basic", nil, `or "mode"`},
		{"no row for the key", "ratio", "system", "FHE-ORTOA", nil, `no ratio rows for system "FHE-ORTOA"`},
		{"a cell that is no number", "cost", "", "", nil, "cost: strconv.ParseFloat"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := tbl.series(c.col, c.by, c.key)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("series(%q, %q, %q) = %v, %v; want an error saying %q", c.col, c.by, c.key, got, err, c.err)
				}
				return
			}
			if err != nil || fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("series(%q, %q, %q) = %v, %v; want %v", c.col, c.by, c.key, got, err, c.want)
			}
		})
	}
}
