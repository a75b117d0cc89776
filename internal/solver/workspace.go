package solver

import (
	"errors"
	"sync"

	"repro/internal/bitblast"
	"repro/internal/sat"
	"repro/internal/sym"
)

// workspace is an encoder over its CDCL solver, recycled across
// negation queries: successive queries share most of their path prefix
// and regrow the same arena, watcher pool and per-variable arrays, so a
// reset workspace decides the next query without allocating them again
// (DESIGN.md §20).
type workspace struct {
	s   *sat.Solver
	enc *bitblast.Encoder
}

// maxPooledBytes caps the buffers a workspace may keep alive in the
// pool. A workspace that grew past it — a sha1-sized instance — goes to
// the garbage collector as a fresh one would, so the pool never pins the
// memory of the largest queries between them.
const maxPooledBytes = 8 << 20

var workspaces = sync.Pool{New: func() any {
	s := sat.New()
	return &workspace{s: s, enc: bitblast.New(s)}
}}

// release returns the workspace to the pool, reset, unless it outgrew
// maxPooledBytes. Read everything the query needs first.
func (ws *workspace) release() {
	if ws.enc.MemBytes() > maxPooledBytes {
		return
	}
	ws.enc.Reset()
	workspaces.Put(ws)
}

// encodeSystem takes a workspace from the pool, configures its solver
// with cfg and asserts system on it — one fresh-solver query's encoding.
// When the encoding itself decides the query (expired clock, a float
// operator, the gate budget, an encoder error) the workspace is released
// and ws is nil; otherwise the caller solves on ws and releases it.
func encodeSystem(system []sym.Expr, cfg sat.Config, expired func() bool) (ws *workspace, st Status, timedOut bool, err error) {
	ws = workspaces.Get().(*workspace)
	ws.s.Configure(cfg)
	for _, c := range system {
		if expired() {
			ws.release()
			return nil, StatusUnknown, true, nil
		}
		if err := ws.enc.Assert(c); err != nil {
			ws.release()
			switch {
			case errors.Is(err, bitblast.ErrFloat):
				return nil, StatusFloatUnsupported, false, nil
			case errors.Is(err, bitblast.ErrBudget):
				return nil, StatusUnknown, false, nil
			}
			return nil, 0, false, err
		}
	}
	return ws, 0, false, nil
}

// verdict maps the CDCL result to a query status, reading the model of
// a Sat verdict. timedOut reports an Unknown that the clock or the
// context may have caused.
func (ws *workspace) verdict(res sat.Status, expired func() bool) (st Status, model map[string]uint64, timedOut bool) {
	switch res {
	case sat.Sat:
		return StatusSat, ws.enc.Model(), false
	case sat.Unsat:
		return StatusUnsat, nil, false
	default:
		return StatusUnknown, nil, expired()
	}
}
