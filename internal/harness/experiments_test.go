package harness

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// quickOpts keeps experiment smoke tests fast.
var quickOpts = Options{Quick: true, Keys: 32, Ops: 2, Concurrency: 4}

// TestEveryExperimentQuick runs every registered experiment at smoke
// scale. An experiment must return a nil error — the drills and the
// trace experiment self-audit, so that is their whole verdict — and a
// table with rows that renders. It ranges over the registry, so an
// experiment is covered from the change that registers it; the tests
// below assert what particular tables must say.
func TestEveryExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiments in -short mode")
	}
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			// overload's verdict is a goodput floor against a capacity
			// it measures itself; the race detector's slowdown of the
			// CPU-bound stages broke it in 1 of 12 runs on a 2-CPU host.
			if e.ID == "overload" && raceEnabled {
				t.Skip("goodput floor is not meaningful under the race detector")
			}
			tbl, err := e.Run(quickOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("table has no rows")
			}
			if err := tbl.Render(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestORAMRoundsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment in -short mode")
	}
	tbl, err := ORAMRounds(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 locations × 2 variants in quick mode.
	if len(tbl.Rows) != 4 {
		t.Fatalf("oram-rounds has %d rows", len(tbl.Rows))
	}
	// The one-round variant must report exactly 1.0 RPCs/access and
	// the two-round variant 2.0.
	for _, row := range tbl.Rows {
		variant, rpcs := row[1], row[2]
		want := "2.0"
		if variant == "one-round" {
			want = "1.0"
		}
		if rpcs != want {
			t.Errorf("%s: rpcs/access = %s, want %s", variant, rpcs, want)
		}
	}
	// One-round latency must be materially below two-round at the
	// same location.
	lat := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad latency %q", row[3])
		}
		return v
	}
	if !(lat(tbl.Rows[1]) < lat(tbl.Rows[0])*0.75) {
		t.Errorf("one-round latency %.1f not well below two-round %.1f", lat(tbl.Rows[1]), lat(tbl.Rows[0]))
	}
}

func TestFHERelinAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment in -short mode")
	}
	tbl, err := FHERelinAblation(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rows for both configurations must be present.
	var sawPlain, sawRelin bool
	var plainSizes, relinSizes []string
	for _, row := range tbl.Rows {
		switch row[0] {
		case "false":
			sawPlain = true
			plainSizes = append(plainSizes, row[3])
		case "true":
			sawRelin = true
			relinSizes = append(relinSizes, row[3])
		}
	}
	if !sawPlain || !sawRelin {
		t.Fatal("missing configuration rows")
	}
	// Relinearized sizes constant; plain sizes growing.
	for i := 1; i < len(relinSizes); i++ {
		if relinSizes[i] != relinSizes[0] {
			t.Errorf("relin ciphertext size changed: %v", relinSizes)
			break
		}
	}
	if len(plainSizes) >= 2 && plainSizes[0] == plainSizes[len(plainSizes)-1] {
		t.Errorf("plain ciphertext size did not grow: %v", plainSizes)
	}
}

func TestFig3bNotesMentionCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment in -short mode")
	}
	tbl, err := Fig3b(Options{Quick: true, Keys: 32, Ops: 2, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "300B") || strings.Contains(n, "crossover") {
			found = true
		}
	}
	if !found {
		t.Errorf("fig3b notes missing crossover commentary: %v", tbl.Notes)
	}
}

func TestSnapshotAttackQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment in -short mode")
	}
	tbl, err := SnapshotAttack(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("attack-snapshot has %d rows", len(tbl.Rows))
	}
	// The plain store must be fully identified; ORTOA must not be.
	if tbl.Rows[0][3] != "100%" {
		t.Errorf("plain store attack accuracy = %s, want 100%%", tbl.Rows[0][3])
	}
	if tbl.Rows[1][3] == "100%" {
		t.Error("attack fully identified ORTOA operations")
	}
}
