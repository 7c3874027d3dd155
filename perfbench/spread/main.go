// Command spread runs the repository benchmark k times on every workload
// of BENCHMARK.json in two sets of different seeds, each run as long as
// BENCHMARK.json's run_seconds, and reports, per end-to-end metric, each
// set's sample count, median and quartiles, the spread (interquartile
// range over the median) and how far the second set's median moved from
// the first's in the metric's worse direction — all against the bounds
// BENCHMARK.json fixes. It exits 1 when a spread or a median drift
// exceeds its bound.
//
// From the repository root:
//
//	go -C perfbench run ./spread -root .. -k 10
//
// Tail percentiles over the runs are printed only where at least ten
// samples lie beyond them; with k = 10 only the quartiles appear.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"

	"imagecvg/perfbench/internal/stat"
)

type benchConfig struct {
	Command    []string                `json:"command"`
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// sets is how many sets of k runs each workload gets: the second set's
// medians are compared with the first's.
const sets = 2

func main() {
	var (
		root    = flag.String("root", ".", "repository root: where BENCHMARK.json is and the command runs")
		k       = flag.Int("k", 10, "runs per set")
		seed    = flag.Int64("seed", 1, "first seed; every run gets the next one")
		verbose = flag.Bool("v", false, "also print every run's value, in seed order")
	)
	flag.Parse()
	if err := run(*root, *k, *seed, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "spread:", err)
		os.Exit(1)
	}
}

func run(root string, k int, seed int64, verbose bool) error {
	data, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		return err
	}
	var cfg benchConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := cfg.RunSeconds
	failed := false
	for _, wl := range cfg.Workloads {
		w := wl.Name
		// values[set][metric] are the set's samples.
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = map[string][]float64{}
			for i := 0; i < k; i++ {
				args := append(append([]string(nil), cfg.Command[1:]...),
					"--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
				seed++
				res, err := runOnce(root, cfg.Command[0], args)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed-1, err)
				}
				for name, m := range res.Metrics {
					values[s][name] = append(values[s][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "%s set %d run %d done\n", w, s+1, i+1)
			}
		}
		fmt.Printf("\n%s (%d sets x %d runs, %ds each)\n", w, sets, k, seconds)
		fmt.Printf("%-16s %5s %4s %3s %14s %14s %14s %8s %8s %8s %s\n",
			"metric", "bound", "set", "n", "median", "q1", "q3", "spread", "drift", "p90", "verdict")
		for _, m := range cfg.EndToEnd {
			first := stat.Median(values[0][m.Name])
			for s := range values {
				xs := values[s][m.Name]
				med := stat.Median(xs)
				q1, q3 := stat.Quartiles(xs)
				spread := (q3 - q1) / math.Abs(med)
				drift := 0.0
				if s > 0 {
					drift = (med - first) / math.Abs(first)
					if m.Better == "higher" {
						drift = -drift
					}
				}
				p90 := "-"
				if v, ok := stat.Percentile(xs, 0.9); ok {
					p90 = fmt.Sprintf("%.6g", v)
				}
				verdict := "ok"
				switch {
				case spread > m.Bound:
					verdict, failed = "SPREAD OVER BOUND", true
				case drift > m.Bound:
					verdict, failed = "DRIFT OVER BOUND", true
				case spread > m.Bound/3:
					verdict = "ok (spread over a third of the bound)"
				}
				fmt.Printf("%-16s %5.2f %4d %3d %14.6g %14.6g %14.6g %8.4f %8.4f %8s %s\n",
					m.Name, m.Bound, s+1, len(xs), med, q1, q3, spread, drift, p90, verdict)
				if verbose {
					fmt.Printf("%-16s %.6g\n", "", xs)
				}
			}
		}
	}
	if failed {
		return errors.New("a metric exceeded its bound")
	}
	return nil
}

// runOnce runs the benchmark and parses the last line of its output.
func runOnce(root, prog string, args []string) (runResult, error) {
	cmd := exec.Command(prog, args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, fmt.Errorf("last line: %w", err)
	}
	if !res.Correct {
		return runResult{}, errors.New("run reported correct=false")
	}
	return res, nil
}
