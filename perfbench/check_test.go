package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/sym"
)

// The tests run from perfbench/; the workloads read repository files
// relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// runCells runs the Table II tasks of one bomb against exp and returns
// the result the benchmark would report.
func runCells(t *testing.T, exp *expectation, bomb string) *result {
	t.Helper()
	tasks, err := setupTable2(nil, 0, exp)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for i, tk := range tasks {
		if strings.HasPrefix(tk.id, bomb+"/") {
			order = append(order, i)
		}
	}
	r := &result{}
	var tl tally
	for _, x := range runPass(tasks, order, nil, nil) {
		tl.add(r, x.id, x.decided, x.solved, x.err)
	}
	endToEnd(r, oneOfEach(), &tl)
	return r
}

// oneOfEach is a timings value with one sample of every series.
func oneOfEach() *timings {
	one := series{wall: []float64{1}, cpu: []float64{1}}
	return &timings{setup: one, restart: one, pass: one, warm: one, task: one}
}

// TestPlantedWrongLabelFails plants a wrong expected label for one
// Table II cell and requires the output check to count exactly that
// cell as failed, lowering check_pass_share.
func TestPlantedWrongLabelFails(t *testing.T) {
	exp, err := loadExpectation()
	if err != nil {
		t.Fatal(err)
	}
	if r := runCells(t, exp, "time"); r.failed != 0 {
		t.Fatalf("true record: %d failed: %v", r.failed, r.failures)
	}
	planted := *exp
	planted.Table2 = map[string][]string{}
	for k, v := range exp.Table2 {
		planted.Table2[k] = append([]string(nil), v...)
	}
	planted.Table2["time"][0] = "ok" // the paper says Es0 for BAP
	r := runCells(t, &planted, "time")
	if r.failed != 1 || !strings.HasPrefix(r.failures[0], "time/BAP:") {
		t.Fatalf("planted label: %d failed %v, want exactly time/BAP", r.failed, r.failures)
	}
	if got := r.metrics["check_pass_share"].Value; got != 0.75 {
		t.Fatalf("check_pass_share = %v, want 0.75", got)
	}
}

// TestMetricsMatchBenchmarkJSON requires the untraced run to emit
// exactly the end_to_end metrics of BENCHMARK.json, and the traced run
// exactly its per_layer metrics, with the units listed there.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	e2e := &result{attempted: 1}
	endToEnd(e2e, oneOfEach(), &tally{})
	layers := &result{}
	setLayers(layers, layerInputs{replay: &layerTotals{}, tr: newTracer(), setups: 1,
		a1: sym.ArenaStats{}})
	for _, c := range []struct {
		got  *result
		want []struct{ Name, Unit string }
	}{{e2e, bench.EndToEnd}, {layers, bench.PerLayer}} {
		var got, want []string
		for k, m := range c.got.metrics {
			got = append(got, k+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("emitted metrics differ from BENCHMARK.json\nemitted:\n%s\nlisted:\n%s",
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestTracedServiceCycle runs one traced service cycle over a few cells
// from two clients (run it with -race): every job passes its check,
// gets a share of the process CPU, and the warm pass reads the tier the
// cold pass wrote.
func TestTracedServiceCycle(t *testing.T) {
	exp, err := loadExpectation()
	if err != nil {
		t.Fatal(err)
	}
	var jobs []svcJob
	for _, j := range extendedJobs(exp) {
		switch j.bomb + "/" + j.tool {
		case "stwrite/reference", "pingpong/angr-nolib", "race2/bap", "envlen/reference":
			jobs = append(jobs, j)
		}
	}
	tr := newTracer()
	c, err := runCycle(t.TempDir(), jobs, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range append(c.cold, c.warm...) {
		if err := j.check(exp); err != nil {
			t.Errorf("%s/%s: %v", j.job.bomb, j.job.tool, err)
		}
		if j.cpu <= 0 {
			t.Errorf("%s/%s: no CPU attributed", j.job.bomb, j.job.tool)
		}
	}
	if c.probe.hits == 0 || c.probe.stores == 0 {
		t.Errorf("tier probe saw %d hits and %d stores; want both", c.probe.hits, c.probe.stores)
	}
	if len(tr.durations("service.job")) != 2*len(jobs) {
		t.Errorf("%d service.job spans, want %d", len(tr.durations("service.job")), 2*len(jobs))
	}
}
