// Command perfbench is the repository benchmark: four closed-loop
// workloads over the Figure 1 pipeline, each checked against an
// independent record of the right outputs.
//
//	table2         the paper's 88 Table II cells (22 bombs x 4 profiles)
//	extended-fuzz  the 65 Table II-extended cells, coverage search + fuzzing
//	congolic       the six examples/demo Go functions through gofront
//	service        concolicd in process: the 65 extended cells as HTTP jobs,
//	               a cold pass, a restart on the same journal and tier, a
//	               warm pass
//
// Run it from the repository root (perfbench/run.sh builds and starts it):
//
//	bash perfbench/run.sh --workload table2 --seed 1 --seconds 16 --trace 0
//
// --seed sets the task order; --seconds sets how many whole passes a run
// makes. With --trace 0 it prints the end-to-end metrics: times are CPU
// seconds (see endToEnd), with their wall-clock twins printed beside
// them. With --trace 1 it runs an untraced pass in a child process, then
// the same pass traced, timing the calls into each layer, replays every
// task's first round layer by layer, and prints the per-layer metrics,
// writing the spans and a CPU profile under --out. Every run checks each
// task's output and writes a report with every sample under --out. The
// last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 9

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is one workload's run.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	tasks             []taskRecord // every task run, for the report file
	samples           map[string][]float64
	// infos are printed and kept in the report file but are not part of
	// the result line: numbers without a bound (wall-clock twins).
	infos map[string]metric
}

func (r *result) info(name, unit string, v float64, n int) {
	if r.infos == nil {
		r.infos = map[string]metric{}
	}
	r.infos[name] = metric{Value: v, Unit: unit, samples: n}
}

// taskRecord is one task in the report file.
type taskRecord struct {
	Task  string  `json:"task"`
	Label string  `json:"label"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

func (r *result) set(name, unit string, v float64, n int) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit, samples: n}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

var workloads = []string{"table2", "extended-fuzz", "congolic", "service"}

func main() {
	var o options
	var secs int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: table2, extended-fuzz, congolic, service, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: sets the task order")
	flag.IntVar(&secs, "seconds", 10, "how long a run measures: sets the number of whole passes from each workload's nominal pass length")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans, CPU profiles, reports and scratch state")
	flag.Parse()
	o.seconds = float64(secs)
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	exp, err := loadExpectation()
	if err != nil {
		fatal(err)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	final := &result{metrics: map[string]metric{}}
	for _, name := range names {
		ow := o
		ow.workload = name
		r, err := runWorkload(ow, exp)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		report(ow, r)
		final.attempted += r.attempted
		final.failed += r.failed
		for k, m := range r.metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			final.metrics[k] = m
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   final.failed == 0,
		"attempted": final.attempted,
		"failed":    final.failed,
		"metrics":   final.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// Nominal pass lengths, measured at this benchmark's introduction on a
// 2-core x86-64 host (Go 1.24). A run makes max(1, seconds/nominal)
// passes, so --seconds fixes the work a run does: a faster program does
// the same passes in less time rather than more passes.
const (
	nominalTable2   = 55.0
	nominalExtended = 4.0
	nominalCongolic = 8.0
	nominalService  = 3.0 // one cold pass, restart and warm pass
)

// passCount is how many passes (service: cycles) a run makes.
func passCount(seconds, nominal float64) int {
	return max(1, int(seconds/nominal))
}

func runWorkload(o options, exp *expectation) (*result, error) {
	switch o.workload {
	case "table2":
		return runInproc(setupTable2, passCount(o.seconds, nominalTable2), o, exp)
	case "extended-fuzz":
		return runInproc(setupExtendedFuzz, passCount(o.seconds, nominalExtended), o, exp)
	case "congolic":
		return runInproc(setupCongolic, passCount(o.seconds, nominalCongolic), o, exp)
	case "service":
		return runService(passCount(o.seconds, nominalService), o, exp)
	}
	return nil, fmt.Errorf("unknown workload %q (choose from %v or all)", o.workload, workloads)
}

// report prints the host record, every metric with its unit and sample
// count, and any failed checks, and writes the same as JSON under --out.
func report(o options, r *result) {
	name := o.workload
	host := hostRecord(o)
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	samples := map[string]int{}
	for _, k := range sortedKeys(r.metrics) {
		m := r.metrics[k]
		samples[k] = m.samples
		fmt.Printf("%-14s %-26s %14.6g %-6s n=%d\n", name, k, m.Value, m.Unit, m.samples)
	}
	for _, k := range sortedKeys(r.infos) {
		m := r.infos[k]
		fmt.Printf("%-14s %-26s %14.6g %-6s n=%d (not bounded)\n", name, k, m.Value, m.Unit, m.samples)
	}
	fmt.Printf("%-14s attempted=%d failed=%d\n", name, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Printf("%-14s FAILED %s\n", name, f)
	}
	full, _ := json.MarshalIndent(map[string]any{
		"workload": name, "host": host, "attempted": r.attempted, "failed": r.failed,
		"failures": r.failures, "metrics": r.metrics, "samples": samples, "tasks": r.tasks, "raw": r.samples, "info": r.infos,
	}, "", "  ")
	path := fmt.Sprintf("%s/%s-seed%d-trace%d.json", o.out, name, o.seed, boolInt(o.trace))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// hostRecord names the host and the run, so a number can be traced back
// to where and how it was measured.
func hostRecord(o options) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"git_commit": commit,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
