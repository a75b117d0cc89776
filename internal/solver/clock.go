package solver

import (
	"context"
	"runtime"
	"time"
)

// queryClock charges a query's Timeout in CPU time of the thread the
// query runs on rather than in wall-clock time, so a verdict that hangs
// on the timeout depends on the work the query did, not on how many
// other goroutines and processes shared the machine meanwhile (on a
// dedicated machine, the paper's setting, the two agree). The query's
// goroutine stays locked to its thread until stop. Context cancellation
// and context deadlines still act in wall-clock time.
type queryClock struct {
	ctx          context.Context
	start, limit time.Duration
}

// startQuery starts the clock for one query with the given Timeout
// (0 = none).
func startQuery(ctx context.Context, limit time.Duration) queryClock {
	runtime.LockOSThread()
	return queryClock{ctx: ctx, start: threadCPU(), limit: limit}
}

// expired reports a cancelled or expired context or a spent Timeout.
func (c queryClock) expired() bool {
	return c.ctx.Err() != nil || (c.limit > 0 && threadCPU()-c.start > c.limit)
}

// stop releases the thread.
func (c queryClock) stop() { runtime.UnlockOSThread() }
