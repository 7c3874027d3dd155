// Command perfbench is the repository benchmark: it runs one workload
// of the coverage-audit system for a fixed measuring time, checks every
// output against a reference, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench -workload audit-bare -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// re-runs the workload with timing shims between the layers and prints
// the per-layer split instead. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload (BENCHMARK.json lists the same set).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"hits_per_s", "1/s"},
	{"hits_per_job", "HIT"},
	{"allocs_per_hit", "allocs/HIT"},
	{"bytes_per_hit", "B/HIT"},
	{"heap_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer are the metrics of the traced run. A layer a workload
// bypasses reads 0; a figure the benchmark cannot observe on a workload
// (a layer inside the server, a percentile with fewer than ten samples
// beyond it) reads notObserved.
var perLayer = []metricDef{
	{"lockstep.rounds", "count"},
	{"lockstep.hits_per_round", "HIT"},
	{"lockstep.self_ns_per_hit", "ns/HIT"},
	{"platform.set_ns_per_hit", "ns/HIT"},
	{"platform.point_ns_per_hit", "ns/HIT"},
	{"platform.busy_share", "ratio"},
	{"cache.self_ns_per_hit", "ns/HIT"},
	{"cache.hit_ratio", "ratio"},
	{"trust.self_ns_per_round", "ns/round"},
	{"trust.probe_share", "ratio"},
	{"trust.excluded_workers", "count"},
	{"governor.self_ns_per_hit", "ns/HIT"},
	{"governor.refused", "count"},
	{"journal.append_us_p50", "us"},
	{"journal.append_us_p99", "us"},
	{"journal.bytes_per_round", "B"},
	{"journal.self_ns_per_round", "ns/round"},
	{"journal.open_ms", "ms"},
	{"journal.replay_ns_per_round", "ns/round"},
	{"journal.replay_hits_per_s", "1/s"},
	{"dawidskene.ms_per_audit", "ms"},
	{"dawidskene.ns_per_response", "ns"},
	{"http.submit_ms_p50", "ms"},
	{"http.result_ms_p50", "ms"},
	{"http.response_bytes_per_job", "B"},
	{"http.sse_delivery_ratio", "ratio"},
	{"http.jobs_per_s", "1/s"},
	{"http.job_p50_ms", "ms"},
	{"http.job_p95_ms", "ms"},
	{"server.queue_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.run_ms_p95", "ms"},
	{"server.rounds_per_job", "count"},
	{"server.disk_bytes_per_job", "B"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// notObserved marks a per-layer figure the benchmark cannot see on a
// workload, as distinct from 0 (the layer did no work).
const notObserved = -1

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is this run's scratch directory (journals, service data); it
	// is removed when the run ends.
	dir string
}

// report is a workload's outcome: the checked operations and every
// metric by name.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

// check records one checked operation.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"audit-bare":    runAuditBare,
	"audit-stacked": runAuditStacked,
	"service-mixed": runServiceMixed,
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: audit-bare, audit-stacked or service-mixed")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "timed seconds to measure")
		trace    = flag.Int("trace", 0, "1 prints the per-layer split of a traced run instead of the end-to-end metrics")
		workdir  = flag.String("workdir", ".bench_build/work", "directory for the run's journals and service data")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload <%s> -seed <n> -seconds <s> -trace <0|1>\n", workloadNames())
		return 2
	}
	// The load is sized for two CPUs: engine parallelism 2, two serve
	// workers and two clients.
	runtime.GOMAXPROCS(2)

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}

	start := time.Now()
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	env := environment(cfg)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", *workload, d.name)
			return 1
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("%-30s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("wall %.1fs, %d operations checked, %d failed\n", time.Since(start).Seconds(), rep.attempted, rep.failed)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// envInfo is printed with every result, so numbers taken on different
// machines, Go versions or journal filesystems are never compared
// unnoticed: an fsync on tmpfs is nearly free, one on a disk is not.
type envInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	DataFS     string  `json:"data_fs"`
}

func environment(cfg config) envInfo {
	return envInfo{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		DataFS:     filesystemOf(cfg.dir),
	}
}

// filesystemOf names the type of the filesystem holding path, from the
// statfs magic number, so the run reads nothing outside its checkout.
func filesystemOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("statfs type %#x", st.Type)
}
