//go:build !linux

package solver

import "time"

var clockEpoch = time.Now()

// threadCPU falls back to monotonic wall-clock time where no per-thread
// CPU clock is wired up.
func threadCPU() time.Duration { return time.Since(clockEpoch) }
