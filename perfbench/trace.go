package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sharedcache"
	"repro/internal/solver"
)

// span is one timed call across a layer boundary. Parent is the id of
// the span that caused it (0 for a root); Task names the benchmark task
// the span belongs to ("" outside any task).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Task   string  `json:"task,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layer is the span name up to its first dot: "solver.query" -> "solver".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open reserves a span id whose interval is filled in by close; the id
// can parent spans recorded in between.
func (t *tracer) open() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) close(id int, name string, parent int, task string, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name, Task: task,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, task string, start, end time.Time) int {
	id := t.open()
	t.close(id, name, parent, task, start, end)
	return id
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.Name == "" {
			continue // reserved but never closed
		}
		self[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if s.Name != "" && err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// engineProbe observes one sequential (Workers=1) exploration from the
// outside. Installed as Capabilities.SharedCache it is a pass-through
// tier that always misses, so the engine solves every query itself and
// its verdicts are those of an untraced run; a query's span runs from
// the tier Lookup (after the local cache missed) to the tier Store
// (after bit-blasting and CDCL search). A Lookup that is never stored
// was cut by the clock or by cancellation. Installed as
// Capabilities.Progress it closes one round span per merged round.
type engineProbe struct {
	tr      *tracer
	task    string
	explore int // span id of the surrounding ExploreContext call

	mu         sync.Mutex
	round      int // open round span id
	roundStart time.Time
	rounds     []float64
	inQuery    bool
	queryStart time.Time
	queries    []float64 // stored and cut query spans
	lookups    int
	cut        int
	modelOpen  bool // a satisfiable query was stored; its model is being finished
	storedAt   time.Time
	modelS     float64
}

func newEngineProbe(tr *tracer, task string, explore int, start time.Time) *engineProbe {
	return &engineProbe{tr: tr, task: task, explore: explore, round: tr.open(), roundStart: start}
}

// settle closes the spans the previous engine event left open: after a
// satisfiable Store, the engine completes and minimises the model and
// builds the next input before its next solver or progress event; a
// Lookup never stored was cut short.
func (p *engineProbe) settle(now time.Time) {
	if p.modelOpen {
		p.modelS += now.Sub(p.storedAt).Seconds()
		p.tr.add("solver.model", p.round, p.task, p.storedAt, now)
		p.modelOpen = false
	}
	if p.inQuery {
		p.cut++
		p.queries = append(p.queries, now.Sub(p.queryStart).Seconds())
		p.tr.add("solver.query", p.round, p.task, p.queryStart, now)
		p.inQuery = false
	}
}

func (p *engineProbe) Lookup(string) (solver.CachedResult, bool) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settle(now)
	p.lookups++
	p.inQuery, p.queryStart = true, now
	return solver.CachedResult{}, false
}

func (p *engineProbe) Store(_ string, res solver.CachedResult) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.inQuery {
		return
	}
	p.inQuery = false
	p.queries = append(p.queries, now.Sub(p.queryStart).Seconds())
	p.tr.add("solver.query", p.round, p.task, p.queryStart, now)
	if res.Status == solver.StatusSat {
		p.modelOpen, p.storedAt = true, now
	}
}

func (p *engineProbe) progress(core.Progress) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settle(now)
	p.endRound(now)
	p.round, p.roundStart = p.tr.open(), now
}

func (p *engineProbe) endRound(now time.Time) {
	p.rounds = append(p.rounds, now.Sub(p.roundStart).Seconds())
	p.tr.close(p.round, "core.round", p.explore, p.task, p.roundStart, now)
}

// finish closes what the last round left open when ExploreContext
// returns. Time after the last progress event (a final breed round, or
// the exit checks) is a core.tail span, not a round.
func (p *engineProbe) finish(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settle(now)
	p.tr.close(p.round, "core.tail", p.explore, p.task, p.roundStart, now)
}

// tierProbe times the service's calls into the shared cache tier,
// forwarding to the tier exactly as solver.SharedTier does. A miss
// followed by a Store of the same key is one solved query (bit-blast
// plus CDCL); a miss never stored was cut.
type tierProbe struct {
	tr *tracer
	t  *sharedcache.Tier

	mu              sync.Mutex
	lookups, hits   int
	stores          int
	lookupS, storeS float64
	pending         map[string]time.Time
	queries         []float64
	cut             int // misses of merged probes never stored
}

func (p *tierProbe) Lookup(key string) (solver.CachedResult, bool) {
	start := time.Now()
	e, ok := p.t.Lookup(key)
	end := time.Now()
	p.tr.add("sharedcache.lookup", 0, "", start, end)
	p.mu.Lock()
	p.lookups++
	if ok {
		p.hits++
	} else {
		if p.pending == nil {
			p.pending = map[string]time.Time{}
		}
		p.pending[key] = end
	}
	p.lookupS += end.Sub(start).Seconds()
	p.mu.Unlock()
	if !ok {
		return solver.CachedResult{}, false
	}
	return solver.CachedResult{Status: solver.Status(e.Status), Conflicts: e.Conflicts, Model: e.Model}, true
}

func (p *tierProbe) Store(key string, res solver.CachedResult) {
	start := time.Now()
	p.t.Store(sharedcache.Entry{Key: key, Status: int(res.Status), Conflicts: res.Conflicts, Model: res.Model})
	end := time.Now()
	p.tr.add("sharedcache.store", 0, "", start, end)
	p.mu.Lock()
	p.stores++
	p.storeS += end.Sub(start).Seconds()
	if missed, ok := p.pending[key]; ok {
		delete(p.pending, key)
		p.queries = append(p.queries, start.Sub(missed).Seconds())
		p.tr.add("solver.query", 0, "", missed, start)
	}
	p.mu.Unlock()
}

// merge folds another instance's probe into p (the cold and the warm
// service of one traced cycle).
func (p *tierProbe) merge(q *tierProbe) {
	p.lookups += q.lookups
	p.hits += q.hits
	p.stores += q.stores
	p.lookupS += q.lookupS
	p.storeS += q.storeS
	p.queries = append(p.queries, q.queries...)
	p.cut += q.cut + len(q.pending)
}

// runtimeSample reads the Go runtime counters the per-layer report
// differences around the traced pass.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			return m.Value.Float64()
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(s[0]), totalCPU: val(s[1]), allocBytes: val(s[2])}
}
