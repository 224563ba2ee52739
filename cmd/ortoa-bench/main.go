// Command ortoa-bench regenerates the paper's evaluation: every table
// and figure of §6, the §3.3 FHE noise experiment, the §6.3.3 cost
// model, and the appendix Figure 6 analysis, over in-process clusters
// with simulated WAN links (Table 2 RTTs).
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
	list := flag.Bool("list", false, "list experiments and exit")
	quick := flag.Bool("quick", false, "minimal sizes (smoke run)")
	keys := flag.Int("keys", 0, "override database size")
	ops := flag.Int("ops", 0, "override operations per client")
	concurrency := flag.Int("concurrency", 0, "override client thread count")
	out := flag.String("out", "", "also write results to this file")
	format := flag.String("format", "text", "output format: text, csv, markdown")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-14s %s\n", e.ID, e.Description)
		}
		return
	}

	opt := harness.Options{Quick: *quick, Keys: *keys, Ops: *ops, Concurrency: *concurrency}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	run := func(e harness.Experiment) {
		log.Printf("running %s (%s)...", e.ID, e.Description)
		start := time.Now()
		table, err := e.Run(opt)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		if err := table.RenderAs(w, *format); err != nil {
			log.Fatal(err)
		}
		log.Printf("%s done in %v", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, e := range harness.Experiments {
			run(e)
		}
		return
	}
	e, err := harness.Lookup(*experiment)
	if err != nil {
		log.Fatal(err)
	}
	run(e)
}
