// Command ortoa-bench regenerates the paper's evaluation: every table
// and figure of §6, the §3.3 FHE noise experiment, the §6.3.3 cost
// model, and the appendix Figure 6 analysis, over in-process clusters
// with simulated WAN links (Table 2 RTTs). Each experiment states a
// claim; after the tables it prints the reproduction checklist, one
// verdict per experiment run, and exits 1 if any claim was refuted.
//
// Usage:
//
//	ortoa-bench -list
//	ortoa-bench -experiment fig2a
//	ortoa-bench -experiment all -quick
//	ortoa-bench -experiment all -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/debug"
	"time"

	"ortoa/internal/harness"
)

func main() {
	log.SetPrefix("ortoa-bench: ")
	log.SetFlags(0)
	// Latency experiments are GC-sensitive: LBL requests are ~64 KiB
	// each and the default GC target makes large-database runs pay
	// collection pauses the paper's dedicated servers would not see.
	debug.SetGCPercent(400)

	experiment := flag.String("experiment", "all", "experiment id, or 'all'")
	list := flag.Bool("list", false, "list experiments and their claims, and exit")
	quick := flag.Bool("quick", false, "minimal sizes (smoke run)")
	keys := flag.Int("keys", 0, "override database size")
	ops := flag.Int("ops", 0, "override operations per client")
	concurrency := flag.Int("concurrency", 0, "override client thread count")
	out := flag.String("out", "", "also write results to this file")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-15s %s\n%-15s claim: %s\n", e.ID, e.Description, "", e.Claim.Statement)
		}
		return
	}
	exps := harness.Experiments
	if *experiment != "all" {
		e, err := harness.Lookup(*experiment)
		if err != nil {
			log.Fatal(err)
		}
		exps = []harness.Experiment{e}
	}
	opt := harness.Options{Quick: *quick, Keys: *keys, Ops: *ops, Concurrency: *concurrency}
	refuted, err := run(exps, opt, *out)
	if err != nil {
		log.Fatal(err)
	}
	if refuted > 0 {
		log.Printf("%d of %d claims refuted", refuted, len(exps))
		os.Exit(1)
	}
}

// run verifies exps, writing each table and then the checklist to
// stdout and, when out is set, to that file too. It returns how many
// claims were refuted.
func run(exps []harness.Experiment, opt harness.Options, out string) (refuted int, err error) {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return 0, err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = io.MultiWriter(os.Stdout, f)
	}
	verdicts := make([]harness.Verdict, 0, len(exps))
	for _, e := range exps {
		log.Printf("running %s (%s)...", e.ID, e.Description)
		start := time.Now()
		table, err := e.Verify(opt)
		if table != nil {
			if err := table.Render(w); err != nil {
				return 0, err
			}
		}
		if err != nil {
			refuted++
			log.Printf("%s: claim refuted: %v", e.ID, err)
		}
		verdicts = append(verdicts, harness.Verdict{Experiment: e, Err: err})
		log.Printf("%s done in %v", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return refuted, harness.Checklist(verdicts).Render(w)
}
