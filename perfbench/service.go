package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/service"
	"repro/internal/sharedcache"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/target"
	"repro/internal/tools"
)

// Service workload shape: a 2-worker concolicd and 2 closed-loop
// clients, each job one engine worker.
const (
	serviceWorkers = 2
	serviceClients = 2
)

// svcJob is one job the clients submit: an extended cell.
type svcJob struct {
	bomb, tool string // tool is the wire name ("angr-nolib")
	column     string // profile display name ("Angr-NoLib")
}

func extendedJobs(exp *expectation) []svcJob {
	var jobs []svcJob
	for _, b := range exp.ExtendedBombs {
		for _, name := range tools.Names() {
			p, _ := tools.ByName(name)
			jobs = append(jobs, svcJob{bomb: b, tool: name, column: p.Name()})
		}
	}
	return jobs
}

// svcInstance is one in-process concolicd: the job journal and the
// shared cache tier under dir, service.New, and an HTTP listener.
type svcInstance struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	jl     *jobstore.Log
	tier   *sharedcache.Tier
	openS  float64    // jobstore.Open's duration
	probe  *tierProbe // non-nil when traced
}

// startService opens (or reopens) the journal and tier under dir and
// serves them; it returns once /healthz answers.
func startService(dir string, tr *tracer) (*svcInstance, error) {
	root := tr.open()
	rootStart := time.Now()
	defer func() { tr.close(root, "bench.setup", 0, "", rootStart, time.Now()) }()

	start := time.Now()
	jl, err := jobstore.Open(filepath.Join(dir, "jobs"))
	end := time.Now()
	tr.add("jobstore.open", root, "", start, end)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	tier, err := sharedcache.Open(filepath.Join(dir, "tier"))
	tr.add("sharedcache.open", root, "", start, time.Now())
	if err != nil {
		jl.Close()
		return nil, err
	}
	s := &svcInstance{jl: jl, tier: tier, served: make(chan struct{}), openS: end.Sub(start).Seconds()}
	var qc solver.QueryCache = solver.SharedTier(tier)
	if tr != nil {
		s.probe = &tierProbe{tr: tr, t: tier}
		qc = s.probe
	}
	start = time.Now()
	s.srv = service.New(service.Config{Workers: serviceWorkers, Jobs: jl, SharedCache: qc})
	tr.add("service.new", root, "", start, time.Now())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Drain(context.Background()) // nothing was submitted: returns at once
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		s.hs.Serve(ln)
		close(s.served)
	}()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	start = time.Now()
	err = s.healthy()
	tr.add("http.healthz", root, "", start, time.Now())
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *svcInstance) healthy() error {
	for i := 0; i < 100; i++ {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("concolicd did not become healthy")
}

// stop shuts the listener, drains the pool and closes the journal and
// tier, waiting for every goroutine the instance started.
func (s *svcInstance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Drain(ctx)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

func (s *svcInstance) close() error {
	err := s.jl.Close()
	if terr := s.tier.Close(); err == nil {
		err = terr
	}
	return err
}

// jobResult is one job as the client saw it.
type jobResult struct {
	job     svcJob
	view    service.View
	dur     float64 // submit to terminal state seen on the event stream
	cpu     float64 // process CPU attributed to the job (see cpuShares)
	submitS float64 // POST /v1/jobs round trip
	err     error   // transport or check failure
}

// cpuShares attributes the process's CPU time to the jobs in flight:
// between two client events the CPU spent is split evenly among the
// jobs submitted and not yet seen done. Concurrent jobs share one
// process, so this is the per-job CPU time the service workload can
// measure.
type cpuShares struct {
	mu       sync.Mutex
	last     float64
	inflight map[int]bool
	cpu      []float64
}

func newCPUShares(n int) *cpuShares {
	return &cpuShares{last: cpuNow(), inflight: map[int]bool{}, cpu: make([]float64, n)}
}

func (c *cpuShares) advance() {
	now := cpuNow()
	if n := len(c.inflight); n > 0 {
		for i := range c.inflight {
			c.cpu[i] += (now - c.last) / float64(n)
		}
	}
	c.last = now
}

func (c *cpuShares) begin(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance()
	c.inflight[i] = true
}

func (c *cpuShares) end(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance()
	delete(c.inflight, i)
}

// pass submits every job once, in order, from two closed-loop clients.
func (s *svcInstance) pass(jobs []svcJob, tr *tracer, passName string) (interval, []jobResult) {
	root := tr.open()
	w := startWatch()
	shares := newCPUShares(len(jobs))
	out := make([]jobResult, len(jobs))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				shares.begin(i)
				out[i] = s.run(jobs[i], tr, root)
				shares.end(i)
			}
		}()
	}
	wg.Wait()
	iv := w.stop()
	tr.close(root, passName, 0, "", w.start, time.Now())
	for i := range out {
		out[i].cpu = shares.cpu[i]
	}
	return iv, out
}

// run submits one job and follows its event stream to the done event.
func (s *svcInstance) run(j svcJob, tr *tracer, parent int) (r jobResult) {
	r.job = j
	task := j.bomb + "/" + j.column
	span := tr.open()
	start := time.Now()
	defer func() {
		end := time.Now()
		r.dur = end.Sub(start).Seconds()
		tr.close(span, "service.job", parent, task, start, end)
	}()
	body, _ := json.Marshal(service.Request{Bomb: j.bomb, Tool: j.tool, Workers: 1})
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	submitted := time.Now()
	tr.add("http.submit", span, task, start, submitted)
	r.submitS = submitted.Sub(start).Seconds()
	if err != nil {
		r.err = err
		return r
	}
	var v service.View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
		return r
	}
	resp, err = s.client.Get(s.base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		if d, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			r.err = json.Unmarshal([]byte(d), &r.view)
			if r.err == nil {
				r.serverSpans(tr, span, task)
			}
			return r
		}
	}
	r.err = fmt.Errorf("event stream ended without a done event: %v", sc.Err())
	return r
}

// serverSpans records the queue wait and the run from the job view's
// own timestamps.
func (r *jobResult) serverSpans(tr *tracer, parent int, task string) {
	sub, st, fin, ok := r.times()
	if !ok {
		return
	}
	tr.add("service.queue", parent, task, sub, st)
	tr.add("service.run", parent, task, st, fin)
}

func (r *jobResult) times() (sub, st, fin time.Time, ok bool) {
	var e1, e2, e3 error
	sub, e1 = time.Parse(time.RFC3339Nano, r.view.Submitted)
	st, e2 = time.Parse(time.RFC3339Nano, r.view.Started)
	fin, e3 = time.Parse(time.RFC3339Nano, r.view.Finished)
	return sub, st, fin, e1 == nil && e2 == nil && e3 == nil
}

// check holds a finished job to the designed spread: done, solved
// exactly when DESIGN.md section 17 says (every Reference cell and
// pingpong under Angr-NoLib), and any solving input detonating on a
// concrete replay.
func (r *jobResult) check(exp *expectation) error {
	if r.err != nil {
		return r.err
	}
	if r.view.State != service.StateDone || r.view.Result == nil {
		return fmt.Errorf("job ended %s: %s", r.view.State, r.view.Error)
	}
	solved := r.view.Result.Verdict == "solved"
	if want := exp.extendedSolved(r.job.bomb, r.job.column); solved != want {
		return fmt.Errorf("solved=%v, designed spread says %v", solved, want)
	}
	if solved {
		b, _ := bombs.ByName(r.job.bomb)
		in := r.view.Result.Input
		if in == nil || !detonates(b.Image(), b.BombAddr(), target.Input{
			Argv1: in.Argv1, TimeNow: in.TimeNow, Pid: in.Pid, Web: in.Web, Files: in.Files, Env: in.Env,
		}) {
			return fmt.Errorf("solving input does not detonate on replay")
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	total := 0.0
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += float64(info.Size())
		}
		return nil
	})
	return total
}

// restartsPerCycle is how many times a cycle restarts the service on
// the cold pass's journal and tier before the warm pass.
const restartsPerCycle = 3

// cycle is one service cycle: a fresh journal and tier, a cold pass,
// restarts on the same directories, and a warm pass.
type cycle struct {
	setup, coldT, warmT interval
	restarts            []interval
	cold, warm          []jobResult
	reopenS             float64 // the last restart's jobstore.Open
	journalBytes        float64
	probe               *tierProbe // traced: both instances merged
}

func runCycle(dir string, jobs []svcJob, tr *tracer) (*cycle, error) {
	c := &cycle{}
	runtime.GC() // as before every set-up: start from a collected heap
	w := startWatch()
	inst, err := startService(dir, tr)
	if err != nil {
		return nil, err
	}
	c.setup = w.stop()
	c.coldT, c.cold = inst.pass(jobs, tr, "bench.pass")
	if err := inst.stop(); err != nil {
		return nil, err
	}
	c.journalBytes = dirBytes(filepath.Join(dir, "jobs"))
	cold := inst.probe

	for k := 0; k < restartsPerCycle; k++ {
		if k > 0 {
			if err := inst.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		w = startWatch()
		inst, err = startService(dir, tr)
		if err != nil {
			return nil, err
		}
		c.restarts = append(c.restarts, w.stop())
		c.reopenS = inst.openS
	}
	c.warmT, c.warm = inst.pass(jobs, tr, "bench.warm_pass")
	if err := inst.stop(); err != nil {
		return nil, err
	}
	if cold != nil {
		c.probe = &tierProbe{}
		c.probe.merge(cold)
		c.probe.merge(inst.probe)
	}
	return c, nil
}

// scratchDirs hands out fresh directories for service state under the
// run's output directory and removes them all at the end.
type scratchDirs struct {
	root string
	n    int
}

func (s *scratchDirs) fresh() (string, error) {
	s.n++
	d := filepath.Join(s.root, fmt.Sprintf("svc-%d", s.n))
	os.RemoveAll(d)
	return d, os.MkdirAll(d, 0o755)
}

func (s *scratchDirs) cleanup() { os.RemoveAll(s.root) }

func jobDecided(j jobResult) bool {
	return j.view.Result != nil && j.view.Result.Verdict != "budget-exhausted"
}

func jobSolved(j jobResult) bool {
	return j.view.Result != nil && j.view.Result.Verdict == "solved"
}

func (t *tally) addJobs(r *result, exp *expectation, jobs []jobResult) {
	for _, j := range jobs {
		t.add(r, j.job.bomb+"/"+j.job.column, jobDecided(j), jobSolved(j), j.check(exp))
	}
}

// runService runs the service workload: set-ups on fresh directories,
// then whole cold/restart/warm cycles. Each cycle submits the 65
// extended cells in a seeded order.
func runService(cycles int, o options, exp *expectation) (*result, error) {
	dirs := &scratchDirs{root: filepath.Join(o.out, fmt.Sprintf("tmp-%d", os.Getpid()))}
	defer dirs.cleanup()
	if o.trace {
		return traceService(o, exp, dirs)
	}
	r := &result{}
	var tm timings
	for i := 0; i < setupRuns; i++ {
		dir, err := dirs.fresh()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		w := startWatch()
		inst, err := startService(dir, nil)
		if err != nil {
			return nil, err
		}
		tm.setup.add(w.stop())
		if err := inst.stop(); err != nil {
			return nil, err
		}
	}
	jobs := extendedJobs(exp)
	rng := rand.New(rand.NewSource(o.seed))
	var t tally
	for n := 0; n < cycles; n++ {
		dir, err := dirs.fresh()
		if err != nil {
			return nil, err
		}
		c, err := runCycle(dir, permute(jobs, rng), nil)
		if err != nil {
			return nil, err
		}
		tm.setup.add(c.setup)
		for _, iv := range c.restarts {
			tm.restart.add(iv)
		}
		tm.pass.add(c.coldT)
		tm.warm.add(c.warmT)
		t.addJobs(r, exp, c.cold)
		t.addJobs(r, exp, c.warm)
		for _, j := range c.cold {
			tm.task.add(interval{j.dur, j.cpu})
			if j.view.Result != nil {
				r.tasks = append(r.tasks, taskRecord{j.job.bomb + "/" + j.job.column, j.view.Result.Label, j.dur, j.cpu})
			}
		}
	}
	endToEnd(r, &tm, &t)
	return r, nil
}

// traceService runs one untraced cycle in a child process, then the
// same cycle traced: the shared tier behind a timing probe, spans from
// the client's submit and event stream and from the job views'
// timestamps, and a first-round replay of every cell under its profile.
func traceService(o options, exp *expectation, dirs *scratchDirs) (*result, error) {
	r := &result{}
	base, err := untracedChild(o, r)
	if err != nil {
		return nil, err
	}
	jobs := permute(extendedJobs(exp), rand.New(rand.NewSource(o.seed)))
	tr := newTracer()
	dir, err := dirs.fresh()
	if err != nil {
		return nil, err
	}
	stop, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	rt0, a0 := readRuntime(), sym.ArenaSnapshot()
	c, err := runCycle(dir, jobs, tr)
	rt1, a1 := readRuntime(), sym.ArenaSnapshot()
	stop()
	if err != nil {
		return nil, err
	}
	var t tally
	for _, j := range c.cold {
		err := j.check(exp)
		if err == nil {
			err = base.compare(j.job.bomb+"/"+j.job.column, j.view.Result.Label, nil)
		}
		t.add(r, j.job.bomb+"/"+j.job.column, jobDecided(j), jobSolved(j), err)
	}
	t.addJobs(r, exp, c.warm)

	var st core.Stats
	sv := &svcLayers{tier: c.probe, journalBytes: c.journalBytes, openS: c.reopenS}
	eng := &engineTotals{queries: c.probe.queries, lookups: c.probe.lookups, cut: c.probe.cut}
	for _, j := range c.cold {
		if res := j.view.Result; res != nil {
			st.Rounds += res.Rounds
			st.SolverQueries += res.Stats.SolverQueries
			st.CacheHits += res.Stats.CacheHits
			st.CacheMisses += res.Stats.CacheMisses
			st.CoveredEdges += res.Stats.CoveredEdges
			st.FuzzExecs += res.Stats.FuzzExecs
			st.FuzzSeedsPromoted += res.Stats.FuzzSeedsPromoted
		}
		sv.submitS = append(sv.submitS, j.submitS)
		if sub, started, fin, ok := j.times(); ok {
			sv.queueS = append(sv.queueS, started.Sub(sub).Seconds())
			sv.runS = append(sv.runS, fin.Sub(started).Seconds())
			// Progress events reach the client in bursts, so a round's
			// time is taken as the job's mean: its run time over its rounds.
			if res := j.view.Result; res != nil && res.Rounds > 0 {
				eng.rounds = append(eng.rounds, fin.Sub(started).Seconds()/float64(res.Rounds))
			}
		}
	}
	tasks, err := setupServiceReplay()
	if err != nil {
		return nil, err
	}
	var rl layerTotals
	for _, tk := range tasks {
		replayRoundOne(tr, tk, &rl)
	}
	setLayers(r, layerInputs{
		stats: st, engine: eng, replay: &rl, tr: tr,
		passWall: c.coldT.wall, passCPU: c.coldT.cpu, untracedCPU: base.passCPU, setups: 2,
		rt0: rt0, rt1: rt1, a0: a0, a1: a1, svc: sv,
	})
	return r, tr.write(artifact(o, ".spans.jsonl"))
}

// setupServiceReplay builds the service's cells as engine tasks (the
// profiles' own search, no fuzzing) for the first-round replay.
func setupServiceReplay() ([]*engineTask, error) {
	return bombGrid(nil, 0, bombs.TableIIExtended(), tools.TableIIExtended(),
		func(*core.Capabilities) {},
		func(string, string, string, bool) error { return nil })
}

func permute(jobs []svcJob, rng *rand.Rand) []svcJob {
	out := make([]svcJob, len(jobs))
	for i, p := range rng.Perm(len(jobs)) {
		out[i] = jobs[p]
	}
	return out
}
