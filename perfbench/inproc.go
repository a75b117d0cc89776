package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/bin"
	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gofront"
	"repro/internal/gos"
	"repro/internal/libc"
	"repro/internal/target"
	"repro/internal/tools"
)

// engineTask is one directed search the in-process workloads run: an
// image, a target address, the engine capabilities and the seed input,
// plus the task's output check.
type engineTask struct {
	id   string
	img  *bin.Image
	addr uint64
	caps core.Capabilities
	seed target.Input
	// label names the verdict the way users read it (a Table II cell).
	label func(*core.Outcome) string
	// check returns why the task's output is wrong, or nil.
	check func(*core.Outcome, string) error
}

// taskResult is one finished task.
type taskResult struct {
	id      string
	label   string
	decided bool
	solved  bool
	wall    float64 // seconds in ExploreContext
	cpu     float64 // process CPU seconds over the same call
	ownCPU  float64 // CPU seconds of the thread running the engine
	err     error   // failed output check
	stats   core.Stats
}

// assemble builds a program image the way the bomb registry and the Go
// frontend do: the guest libc plus one unit.
func assemble(tr *tracer, parent int, name, src string) (*bin.Image, uint64, error) {
	start := time.Now()
	img, err := asm.Assemble(append(libc.All(), asm.Source{Name: name, Text: src})...)
	tr.add("asm.assemble", parent, "", start, time.Now())
	if err != nil {
		return nil, 0, err
	}
	addr, ok := img.Symbol("bomb")
	if !ok {
		return nil, 0, fmt.Errorf("%s: image has no bomb symbol", name)
	}
	return img, addr, nil
}

// cellLabel is the Table II label of one outcome under one profile:
// the engine's classification, or the profile's documented override.
func cellLabel(out *core.Outcome, p tools.Profile, bomb string) string {
	if ov, ok := p.Overrides[bomb]; ok {
		return string(ov.Outcome)
	}
	return string(eval.Classify(out))
}

// checkDetonation requires a solving input to reach the bomb address on
// an independent concrete replay.
func checkDetonation(img *bin.Image, addr uint64, out *core.Outcome) error {
	if out.Verdict == core.VerdictSolved && !detonates(img, addr, out.Input) {
		return fmt.Errorf("solving input %q does not detonate on replay", out.Input.Argv1)
	}
	return nil
}

// bombGrid builds one task per (bomb, profile) cell. want, when non-nil,
// checks a cell's label and solved state.
func bombGrid(tr *tracer, parent int, rows []*bombs.Bomb, profiles []tools.Profile,
	adjust func(*core.Capabilities), want func(bomb, tool, label string, solved bool) error) ([]*engineTask, error) {
	var tasks []*engineTask
	for _, b := range rows {
		img, addr, err := assemble(tr, parent, b.Name+".s", b.Source)
		if err != nil {
			return nil, err
		}
		for _, p := range profiles {
			p, bomb := p, b.Name
			caps := p.Caps
			caps.Workers = 1
			adjust(&caps)
			tasks = append(tasks, &engineTask{
				id: bomb + "/" + p.Name(), img: img, addr: addr, caps: caps, seed: b.Benign,
				label: func(out *core.Outcome) string { return cellLabel(out, p, bomb) },
				check: func(out *core.Outcome, label string) error {
					if err := want(bomb, p.Name(), label, out.Verdict == core.VerdictSolved); err != nil {
						return err
					}
					return checkDetonation(img, addr, out)
				},
			})
		}
	}
	return tasks, nil
}

// setupTable2: the paper's 88 cells at the shipped budgets, generational
// search, fresh solver.
func setupTable2(tr *tracer, parent int, exp *expectation) ([]*engineTask, error) {
	return bombGrid(tr, parent, bombs.TableII(), tools.TableII(),
		func(*core.Capabilities) {},
		func(bomb, tool, label string, _ bool) error {
			w, ok := exp.table2Label(bomb, tool)
			if !ok {
				return fmt.Errorf("no expected label")
			}
			if label != w {
				return fmt.Errorf("label %q, paper %q", label, w)
			}
			return nil
		})
}

// setupExtendedFuzz: the 65 Table II-extended cells under coverage
// search with the mutation stage on, at the engine's default mutation
// seed (FuzzSeed 0, what the CLIs run). Only the Reference column has a
// fixed expectation there (it solves every bomb); fuzzing may detonate
// more cells.
func setupExtendedFuzz(tr *tracer, parent int, _ *expectation) ([]*engineTask, error) {
	return bombGrid(tr, parent, bombs.TableIIExtended(), tools.TableIIExtended(),
		func(c *core.Capabilities) {
			c.Search = core.SearchCoverage
			c.Fuzz = true
		},
		func(_, tool, _ string, solved bool) error {
			if tool == tools.Reference().Name() && !solved {
				return fmt.Errorf("Reference did not solve")
			}
			return nil
		})
}

// demoDir is the congolic fixture package, relative to the checkout.
const demoDir = "examples/demo"

// setupCongolic loads, lowers and assembles the six demo functions for
// the Reference profile, as congolic does.
func setupCongolic(tr *tracer, parent int, exp *expectation) ([]*engineTask, error) {
	golden, err := goldenSites(exp.CongolicGolden)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pkg, err := gofront.Load(demoDir)
	tr.add("gofront.load", parent, "", start, time.Now())
	if err != nil {
		return nil, err
	}
	base := tools.Reference().Caps
	base.Workers = 1
	var tasks []*engineTask
	for _, fn := range exp.CongolicFuncs {
		fn := fn
		start := time.Now()
		prog, err := gofront.Lower(pkg, fn)
		tr.add("gofront.lower", parent, "congolic/"+fn, start, time.Now())
		if err != nil {
			return nil, err
		}
		img, addr, err := assemble(tr, parent, "go_"+fn+".s", prog.Asm)
		if err != nil {
			return nil, err
		}
		payload, err := gofront.EncodeArgs(prog.Sig, gofront.ZeroArgs(prog.Sig))
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, &engineTask{
			id: "congolic/" + fn, img: img, addr: addr,
			caps:  gofront.Caps(base, prog.Sig),
			seed:  target.Input{Argv1: payload},
			label: func(out *core.Outcome) string { return out.Verdict.String() },
			check: func(out *core.Outcome, _ string) error {
				return checkCongolic(pkg, prog, img, addr, fn, out, golden[fn])
			},
		})
	}
	return tasks, nil
}

// checkCongolic requires a solved verdict whose decoded arguments
// detonate the lowered image at an attributed panic site, agree with the
// source-level evaluator (gofront.Result.Agreed), and, where the golden
// report records the function, hit the recorded site.
func checkCongolic(pkg *gofront.Package, prog *gofront.Program, img *bin.Image, addr uint64,
	fn string, out *core.Outcome, wantSite string) error {
	if out.Verdict != core.VerdictSolved {
		return fmt.Errorf("verdict %s, want solved", out.Verdict)
	}
	res := &gofront.Result{Prog: prog, Outcome: out, Args: gofront.DecodeArgs(prog.Sig, out.Input.Argv1)}
	res.MachineBoom, res.MachineSite = replaySite(img, addr, prog, out.Input)
	res.Replay, res.ReplayErr = pkg.Eval(fn, res.Args)
	switch {
	case !res.MachineBoom:
		return fmt.Errorf("args %v do not detonate on replay", res.Args)
	case !res.Agreed():
		return fmt.Errorf("machine and source replays disagree on %v", res.Args)
	case wantSite != "" && baseSite(res.MachineSite) != wantSite:
		return fmt.Errorf("detonated at %q, golden %q", baseSite(res.MachineSite), wantSite)
	}
	return nil
}

// replaySite runs in on the lowered image watching the bomb address and
// every panic-site label, and names the site that fired.
func replaySite(img *bin.Image, addr uint64, prog *gofront.Program, in target.Input) (bool, string) {
	cfg := in.Config()
	cfg.WatchAddrs = []uint64{addr}
	sites := map[uint64]string{}
	for label, desc := range prog.PanicSites {
		if a, ok := img.Symbol(label); ok {
			sites[a] = desc
			cfg.WatchAddrs = append(cfg.WatchAddrs, a)
		}
	}
	m, err := gos.New(img, cfg)
	if err != nil {
		return false, ""
	}
	r := m.Run()
	if !r.Hit(addr) || r.ExitStatus != 42 || !strings.Contains(r.Stdout, "BOOM") {
		return false, ""
	}
	for a, desc := range sites {
		if r.Hit(a) {
			return true, desc
		}
	}
	return true, ""
}

// runTask runs one task to its verdict. With a tracer, the engine's
// progress hook and a pass-through query tier record its rounds and
// solver queries under a core.explore span.
func runTask(t *engineTask, tr *tracer, parent int, acc *engineTotals) taskResult {
	caps := t.caps
	var probe *engineProbe
	explore := tr.open()
	// A single-worker engine runs entirely on this goroutine, so the
	// thread clock times the engine alone; the process clock adds the
	// collector's background work, which a pass is charged for.
	tw := startThreadWatch()
	w := startWatch()
	if tr != nil {
		probe = newEngineProbe(tr, t.id, explore, w.start)
		caps.SharedCache = probe
		caps.Progress = probe.progress
	}
	out := core.New(t.img, t.addr, caps).ExploreContext(context.Background(), t.seed)
	iv := w.stop()
	own := tw.stop()
	if probe != nil {
		end := time.Now()
		probe.finish(end)
		tr.close(explore, "core.explore", parent, t.id, w.start, end)
		acc.add(probe)
	}
	label := t.label(out)
	return taskResult{
		id: t.id, label: label,
		decided: out.Verdict != core.VerdictBudget,
		solved:  out.Verdict == core.VerdictSolved,
		wall:    iv.wall,
		cpu:     iv.cpu,
		ownCPU:  own.cpu,
		err:     t.check(out, label),
		stats:   out.Stats,
	}
}

// engineTotals accumulates the probes of a traced pass.
type engineTotals struct {
	rounds, queries []float64
	lookups, cut    int
	modelS          float64
}

func (a *engineTotals) add(p *engineProbe) {
	a.rounds = append(a.rounds, p.rounds...)
	a.queries = append(a.queries, p.queries...)
	a.lookups += p.lookups
	a.cut += p.cut
	a.modelS += p.modelS
}

// runPass runs every task once in the given order.
func runPass(tasks []*engineTask, order []int, tr *tracer, acc *engineTotals) []taskResult {
	root := tr.open()
	start := time.Now()
	out := make([]taskResult, 0, len(tasks))
	for _, i := range order {
		out = append(out, runTask(tasks[i], tr, root, acc))
	}
	tr.close(root, "bench.pass", 0, "", start, time.Now())
	return out
}

// passTimes sums the tasks' times: a pass's time leaves out the
// benchmark's own work between tasks (the output checks).
func passTimes(res []taskResult) interval {
	var iv interval
	for _, x := range res {
		iv.wall += x.wall
		iv.cpu += x.cpu
	}
	return iv
}
