package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/sym"
)

// setupFunc sets an in-process workload up once: it assembles (and for
// congolic loads and lowers) everything its tasks need.
type setupFunc func(tr *tracer, parent int, exp *expectation) ([]*engineTask, error)

// tally accumulates task verdicts and checks into the result.
type tally struct {
	decided, solved int
}

func (t *tally) add(r *result, id string, decided, solved bool, err error) {
	r.attempted++
	if decided {
		t.decided++
	}
	if solved {
		t.solved++
	}
	if err != nil {
		r.fail("%s: %v", id, err)
	}
}

// series is one measured quantity: wall seconds and the process CPU
// seconds spent over the same intervals.
type series struct{ wall, cpu []float64 }

func (s *series) add(iv interval) {
	s.wall = append(s.wall, iv.wall)
	s.cpu = append(s.cpu, iv.cpu)
}

// timings are an untraced run's measurements.
type timings struct {
	setup, restart, pass, warm, task series
}

// endToEnd sets the user-facing metrics of an untraced run. Times are
// process CPU seconds: on a shared host, wall time also counts what
// the hypervisor steals, which moved passes by a third from run to run.
// The wall-clock twins are printed and kept in the report file.
func endToEnd(r *result, tm *timings, t *tally) {
	r.samples = map[string][]float64{}
	for _, x := range []struct {
		name string
		s    series
	}{{"setup", tm.setup}, {"restart", tm.restart}, {"pass", tm.pass}, {"warm_pass", tm.warm}} {
		r.samples[x.name+"_cpu_s"] = x.s.cpu
		r.samples[x.name+"_wall_s"] = x.s.wall
		r.info(x.name+"_wall_s", "s", median(x.s.wall), len(x.s.wall))
	}
	// Per-task percentiles are printed but not bounded: table2 runs one
	// pass, and over its 88 cells the p50 and p90 of the same work moved
	// by a fifth to a quarter from run to run on a 2-vCPU host.
	r.info("task_cpu_s_p50", "s", quantile(tm.task.cpu, 0.5), len(tm.task.cpu))
	r.info("task_cpu_s_p90", "s", quantile(tm.task.cpu, 0.9), len(tm.task.cpu))
	r.info("task_wall_s_p50", "s", quantile(tm.task.wall, 0.5), len(tm.task.wall))
	r.info("task_wall_s_p90", "s", quantile(tm.task.wall, 0.9), len(tm.task.wall))
	r.set("setup_s", "s", median(tm.setup.cpu), len(tm.setup.cpu))
	r.set("restart_cpu_s", "s", median(tm.restart.cpu), len(tm.restart.cpu))
	r.set("pass_cpu_s", "s", median(tm.pass.cpu), len(tm.pass.cpu))
	r.set("warm_pass_cpu_s", "s", median(tm.warm.cpu), len(tm.warm.cpu))
	n := float64(r.attempted)
	r.set("decided_share", "share", float64(t.decided)/n, r.attempted)
	r.set("solved_share", "share", float64(t.solved)/n, r.attempted)
	r.set("check_pass_share", "share", 1-float64(r.failed)/n, r.attempted)
	r.set("peak_rss_mb", "MB", peakRSSMB(), 1)
}

// runInproc runs one in-process workload: set-ups, then whole passes
// over its tasks (one client, one task at a time).
func runInproc(setup setupFunc, passes int, o options, exp *expectation) (*result, error) {
	if o.trace {
		return traceInproc(setup, o, exp)
	}
	r := &result{}
	var tm timings
	tasks, err := setUp(setup, exp, setupRuns, &tm.setup)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	var t tally
	for p := 0; p < passes; p++ {
		res := runPass(tasks, rng.Perm(len(tasks)), nil, nil)
		for _, x := range res {
			t.add(r, x.id, x.decided, x.solved, x.err)
			tm.task.add(interval{x.wall, x.ownCPU})
			r.tasks = append(r.tasks, taskRecord{x.id, x.label, x.wall, x.cpu})
		}
		tm.pass.add(passTimes(res))
		// Nothing an in-process workload builds survives a restart, so
		// its restart is the set-up repeated after a pass. Spreading
		// these through the run also samples the host at different times.
		if _, err := setUp(setup, exp, restartsPerPass, &tm.restart); err != nil {
			return nil, err
		}
	}
	tm.setup.wall = append(tm.setup.wall, tm.restart.wall...)
	tm.setup.cpu = append(tm.setup.cpu, tm.restart.cpu...)
	// Warm passes are those after the first: the process-wide lift memo
	// and term arena are filled.
	tm.warm = tm.pass
	if passes > 1 {
		tm.warm = series{tm.pass.wall[1:], tm.pass.cpu[1:]}
	}
	endToEnd(r, &tm, &t)
	return r, nil
}

// restartsPerPass is how many set-ups an in-process run repeats after
// each pass.
const restartsPerPass = 8

// setUp sets the workload up n times, each from a collected heap so
// that how much of the collector's work lands on it does not depend on
// what ran before, and records each into s. It returns the last set-up.
func setUp(setup setupFunc, exp *expectation, n int, s *series) ([]*engineTask, error) {
	var tasks []*engineTask
	for i := 0; i < n; i++ {
		runtime.GC()
		w := startWatch()
		ts, err := setup(nil, 0, exp)
		s.add(w.stop())
		if err != nil {
			return nil, err
		}
		tasks = ts
	}
	return tasks, nil
}

// traceInproc is the traced run of an in-process workload: an untraced
// pass in a child process, then, in this still-cold process, set-ups
// recorded as spans, the same pass traced, and a layer-by-layer replay
// of every task's first round.
func traceInproc(setup setupFunc, o options, exp *expectation) (*result, error) {
	r := &result{}
	base, err := untracedChild(o, r)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var tasks []*engineTask
	for i := 0; i < setupRuns; i++ {
		root := tr.open()
		start := time.Now()
		ts, err := setup(tr, root, exp)
		tr.close(root, "bench.setup", 0, "", start, time.Now())
		if err != nil {
			return nil, err
		}
		tasks = ts
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(tasks))

	stop, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	rt0, a0 := readRuntime(), sym.ArenaSnapshot()
	var acc engineTotals
	res := runPass(tasks, order, tr, &acc)
	traced := passTimes(res)
	rt1, a1 := readRuntime(), sym.ArenaSnapshot()
	stop()
	var t tally
	for _, x := range res {
		t.add(r, x.id, x.decided, x.solved, base.compare(x.id, x.label, x.err))
	}
	var lt layerTotals
	for _, i := range order {
		replayRoundOne(tr, tasks[i], &lt)
	}

	var st core.Stats
	for _, x := range res {
		addStats(&st, x.stats)
	}
	setLayers(r, layerInputs{
		stats: st, engine: &acc, replay: &lt, tr: tr,
		passWall: traced.wall, passCPU: traced.cpu, untracedCPU: base.passCPU, setups: setupRuns,
		rt0: rt0, rt1: rt1, a0: a0, a1: a1,
	})
	return r, tr.write(artifact(o, ".spans.jsonl"))
}

// untraced is the untraced child run a traced run compares against.
type untraced struct {
	passCPU float64
	labels  map[string]string
}

// untracedChild runs one untraced pass of the same workload and seed in
// a fresh process (so that both passes start with cold process-wide
// caches) and folds its checks into r.
func untracedChild(o options, r *result) (*untraced, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(o.out, "untraced")
	cmd := exec.Command(self, "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", "0", "--trace", "0", "--out", out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("%s-seed%d-trace0.json", o.workload, o.seed)))
	if err != nil {
		return nil, err
	}
	var rep struct {
		Attempted int                  `json:"attempted"`
		Failures  []string             `json:"failures"`
		Raw       map[string][]float64 `json:"raw"`
		Tasks     []taskRecord         `json:"tasks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if len(rep.Raw["pass_cpu_s"]) == 0 {
		return nil, fmt.Errorf("untraced run reported no pass")
	}
	r.attempted += rep.Attempted
	for _, f := range rep.Failures {
		r.fail("untraced %s", f)
	}
	u := &untraced{passCPU: rep.Raw["pass_cpu_s"][0], labels: map[string]string{}}
	for _, t := range rep.Tasks {
		u.labels[t.Task] = t.Label
	}
	return u, nil
}

// compare returns the task's own check failure, or a label differing
// from the untraced run's.
func (u *untraced) compare(id, label string, err error) error {
	if err != nil {
		return err
	}
	if want, ok := u.labels[id]; !ok || want != label {
		return fmt.Errorf("traced label %q, untraced %q", label, want)
	}
	return nil
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.Rounds += s.Rounds
	dst.SolverQueries += s.SolverQueries
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
	dst.CheckpointResumes += s.CheckpointResumes
	dst.InstructionsSkipped += s.InstructionsSkipped
	dst.PagesCOWFaulted += s.PagesCOWFaulted
	dst.CoveredEdges += s.CoveredEdges
	dst.FuzzExecs += s.FuzzExecs
	dst.FuzzSeedsPromoted += s.FuzzSeedsPromoted
}

// layerInputs is everything a traced run hands to setLayers.
type layerInputs struct {
	stats       core.Stats
	engine      *engineTotals // nil on the service
	replay      *layerTotals
	tr          *tracer
	passWall    float64 // traced pass, wall seconds
	passCPU     float64 // traced pass, process CPU seconds
	untracedCPU float64 // the untraced child's pass
	setups      int
	rt0, rt1    runtimeSample
	a0, a1      sym.ArenaStats
	svc         *svcLayers // nil in process
}

// svcLayers is what only the service run measures.
type svcLayers struct {
	submitS, queueS, runS []float64
	tier                  *tierProbe
	openS, journalBytes   float64
}

// setLayers sets every per-layer metric; a layer the workload does not
// exercise reads 0.
func setLayers(r *result, in layerInputs) {
	st, lt, tr := in.stats, in.replay, in.tr
	var rounds, queries []float64
	var lookups, cut int
	modelS := 0.0
	if e := in.engine; e != nil {
		rounds, queries, lookups, cut, modelS = e.rounds, e.queries, e.lookups, e.cut, e.modelS
	}
	perSetup := func(name string) float64 { return sum(tr.durations(name)) / float64(in.setups) }

	r.set("core.rounds", "count", float64(st.Rounds), 1)
	r.set("core.round_s_p50", "s", zeroNaN(quantile(rounds, 0.5)), len(rounds))
	r.set("core.round_s_p90", "s", zeroNaN(quantile(rounds, 0.9)), len(rounds))

	solveS := sum(queries)
	r.set("solver.queries", "count", float64(st.SolverQueries), 1)
	r.set("solver.cache_hit_ratio", "ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)), 1)
	r.set("solver.solve_s", "s", solveS, len(queries))
	r.set("solver.solve_share", "ratio", ratio(solveS, in.passWall), 1)
	r.set("solver.query_s_p50", "s", zeroNaN(quantile(queries, 0.5)), len(queries))
	r.set("solver.query_s_p90", "s", zeroNaN(quantile(queries, 0.9)), len(queries))
	r.set("solver.cut_ratio", "ratio", ratio(float64(cut), float64(lookups)), lookups)
	r.set("solver.model_s", "s", modelS, 1)

	r.set("bitblast.assert_s", "s", lt.assertS, int(lt.replayQueries))
	r.set("bitblast.gates", "count", lt.gates, int(lt.replayQueries))
	r.set("sat.solve_s", "s", lt.satSolveS, int(lt.replayQueries))
	r.set("sat.clauses", "count", lt.clauses, int(lt.replayQueries))
	r.set("sat.conflicts", "count", lt.conflicts, int(lt.replayQueries))
	r.set("sat.props_per_s", "1/s", ratio(lt.props, lt.satSolveS), int(lt.replayQueries))

	r.set("gos.run_s", "s", lt.gosRunS, int(lt.replayedTasks))
	r.set("gos.steps", "count", lt.gosSteps, int(lt.replayedTasks))
	r.set("gos.steps_per_s", "1/s", ratio(lt.gosSteps, lt.gosRunS), int(lt.replayedTasks))
	r.set("gos.resumes", "count", float64(st.CheckpointResumes), 1)
	r.set("gos.steps_skipped", "count", float64(st.InstructionsSkipped), 1)
	r.set("mem.cow_pages", "count", float64(st.PagesCOWFaulted), 1)

	r.set("symexec.run_s", "s", lt.symexecRunS, int(lt.replayedTasks))
	r.set("symexec.constraints", "count", lt.constraints, int(lt.replayedTasks))
	r.set("symexec.tainted", "count", lt.tainted, int(lt.replayedTasks))

	hits, misses := float64(in.a1.Hits-in.a0.Hits), float64(in.a1.Misses-in.a0.Misses)
	r.set("sym.intern_hit_ratio", "ratio", ratio(hits, hits+misses), 1)
	r.set("sym.arena_nodes", "count", float64(in.a1.Size), 1)

	r.set("cover.edges", "count", float64(st.CoveredEdges), 1)
	r.set("mutate.execs", "count", float64(st.FuzzExecs), 1)
	r.set("mutate.promoted_ratio", "ratio", ratio(float64(st.FuzzSeedsPromoted), float64(st.FuzzExecs)), 1)

	r.set("asm.assemble_s", "s", perSetup("asm.assemble"), in.setups)
	r.set("gofront.load_s", "s", perSetup("gofront.load"), in.setups)
	r.set("gofront.lower_s", "s", perSetup("gofront.lower"), in.setups)

	var sv svcLayers
	if in.svc != nil {
		sv = *in.svc
	}
	r.set("service.submit_s_p50", "s", zeroNaN(quantile(sv.submitS, 0.5)), len(sv.submitS))
	r.set("service.queue_s_p50", "s", zeroNaN(quantile(sv.queueS, 0.5)), len(sv.queueS))
	r.set("service.queue_s_p90", "s", zeroNaN(quantile(sv.queueS, 0.9)), len(sv.queueS))
	r.set("service.run_s_p50", "s", zeroNaN(quantile(sv.runS, 0.5)), len(sv.runS))
	tp := sv.tier
	if tp == nil {
		tp = &tierProbe{}
	}
	r.set("sharedcache.hit_ratio", "ratio", ratio(float64(tp.hits), float64(tp.lookups)), tp.lookups)
	r.set("sharedcache.lookup_s", "s", tp.lookupS, tp.lookups)
	r.set("sharedcache.store_s", "s", tp.storeS, tp.stores)
	r.set("sharedcache.stores", "count", float64(tp.stores), 1)
	r.set("jobstore.open_s", "s", sv.openS, 1)
	r.set("jobstore.bytes", "bytes", sv.journalBytes, 1)

	r.set("runtime.gc_cpu_share", "ratio", ratio(in.rt1.gcCPU-in.rt0.gcCPU, in.rt1.totalCPU-in.rt0.totalCPU), 1)
	r.set("runtime.alloc_mb", "MB", (in.rt1.allocBytes-in.rt0.allocBytes)/(1<<20), 1)

	r.set("trace.pass_cpu_s", "s", in.passCPU, 1)
	r.set("trace.untraced_pass_cpu_s", "s", in.untracedCPU, 1)
	r.set("trace.overhead_ratio", "ratio", ratio(in.passCPU, in.untracedCPU), 1)

	self := tr.selfTimes()
	for _, l := range selfLayers {
		r.set("self."+l+"_s", "s", self[l], 1)
	}
}

// selfLayers are the span layers whose self time the traced run reports.
var selfLayers = []string{"bench", "core", "solver", "asm", "gofront", "gos", "symexec",
	"bitblast", "sat", "service", "http", "sharedcache", "jobstore"}

func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// startProfile starts a CPU profile under --out; the returned function
// stops it.
func startProfile(o options) (func(), error) {
	f, err := os.Create(artifact(o, ".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func artifact(o options, ext string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d%s", o.workload, o.seed, ext))
}
