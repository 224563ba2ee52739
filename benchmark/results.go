package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// A manifest is the part of BENCHMARK.json the program reads: the
// workload names and each end-to-end metric's direction and bound.
type manifest struct {
	Workloads []manifestWorkload `json:"workloads"`
	EndToEnd  []manifestMetric   `json:"end_to_end"`
	PerLayer  []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// A resultSet is one run of every workload, end to end and traced, as
// -workload all writes it and -compare reads it.
type resultSet struct {
	Host      host                      `json:"host"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
	// Valid is false when a validity guard tripped: the numbers are
	// reported but should not be compared.
	Valid bool `json:"valid"`
}

// host is the shape of the machine and runtime the numbers belong to.
type host struct {
	CPUs       int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

// pinnedGOGC is set at start-up so an inherited GOGC cannot change the
// GC's share of the numbers.
const pinnedGOGC = 100

func hostShape() host {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux; recorded as empty
	return host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       pinnedGOGC,
		Go:         runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

func init() { debug.SetGCPercent(pinnedGOGC) }

// runAll runs every workload twice, untraced and traced, each in a
// fresh child process so that memory, GC state and CPU accounting do
// not leak from one into the next, and writes the result set to out.
func runAll(seed uint64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Host: hostShape(), Seed: seed, Seconds: seconds, Workloads: map[string]workloadResult{}}
	var failed []string
	for _, w := range workloads {
		wr := workloadResult{}
		for trace, dst := range []*result{&wr.EndToEnd, &wr.PerLayer} {
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], dst); err != nil {
				return fmt.Errorf("%s trace=%d: no result (%v): %w", w.name, trace, runErr, err)
			}
			for _, line := range lines[:len(lines)-1] {
				fmt.Printf("%s %s\n", w.name, line)
			}
			if runErr != nil {
				failed = append(failed, fmt.Sprintf("%s trace=%d", w.name, trace))
			}
		}
		wr.Valid = set.Host.GOMAXPROCS >= 2 && wr.PerLayer.Metrics["run.valid"].Value == 1
		if !wr.Valid {
			fmt.Printf("%s invalid: a validity guard tripped, see above\n", w.name)
		}
		set.Workloads[w.name] = wr
	}
	if out == "" {
		out = filepath.Join(resultsDir, "results.json")
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result set written to", out)
	if len(failed) > 0 {
		return fmt.Errorf("incorrect results: %s", strings.Join(failed, ", "))
	}
	return nil
}

func readResultSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints change against parent and fails on any breach.
// It reads the bounds from BENCHMARK.json in the working directory.
func compareFiles(parentPath, changePath string) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	parent, err := readResultSet(parentPath)
	if err != nil {
		return err
	}
	change, err := readResultSet(changePath)
	if err != nil {
		return err
	}
	if n := compareSets(os.Stdout, man, parent, change); n > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse than their bound allows", n)
	}
	return nil
}

// worsening is how much worse change is than parent as a share of
// parent, positive meaning worse, given which direction is better.
func worsening(better string, parent, change float64) float64 {
	rel := (change - parent) / parent
	if better == "higher" {
		return -rel
	}
	return rel
}

// compareSets prints, per workload, every end-to-end metric's relative
// difference beside its bound, and returns the number of breaches. A
// rise in failed operations is always a breach.
func compareSets(out io.Writer, man manifest, parent, change resultSet) int {
	breaches := 0
	for _, w := range man.Workloads {
		p, pok := parent.Workloads[w.Name]
		c, cok := change.Workloads[w.Name]
		if !pok || !cok {
			fmt.Fprintf(out, "%-18s missing from a result set\n", w.Name)
			breaches++
			continue
		}
		fmt.Fprintf(out, "%s\n", w.Name)
		for _, m := range man.EndToEnd {
			pv, cv := p.EndToEnd.Metrics[m.Name].Value, c.EndToEnd.Metrics[m.Name].Value
			worse := worsening(m.Better, pv, cv)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "WORSE THAN BOUND"
				breaches++
			}
			fmt.Fprintf(out, "  %-30s %14.4f -> %14.4f %-6s %+7.2f%% worse, bound %.0f%%  %s\n",
				m.Name, pv, cv, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
		pf := float64(p.EndToEnd.Failed) / float64(max(p.EndToEnd.Attempted, 1))
		cf := float64(c.EndToEnd.Failed) / float64(max(c.EndToEnd.Attempted, 1))
		verdict := "ok"
		if cf > pf || !c.EndToEnd.Correct {
			verdict = "FAILURES ROSE"
			breaches++
		}
		fmt.Fprintf(out, "  %-30s %14.6f -> %14.6f %-6s any rise is a breach  %s\n", "failed_frac", pf, cf, "", verdict)
		if !p.Valid || !c.Valid {
			fmt.Fprintf(out, "  a run of this workload was marked invalid; treat the rows above as unresolved\n")
		}
	}
	return breaches
}
