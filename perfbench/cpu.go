package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is CLOCK_PROCESS_CPUTIME_ID: CPU time consumed by
// every thread of the process, in nanoseconds, excluding time the
// hypervisor stole from the virtual CPUs.
const clockProcessCPU = 2

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID: CPU time of the calling
// thread only.
const clockThreadCPU = 3

// cpuNow returns the process's CPU time in seconds.
func cpuNow() float64 { return clockSeconds(clockProcessCPU) }

// threadCPUNow returns the calling thread's CPU time in seconds; the
// caller must hold runtime.LockOSThread across the interval it measures.
func threadCPUNow() float64 { return clockSeconds(clockThreadCPU) }

func clockSeconds(clock uintptr) float64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// watch measures an interval in wall and process CPU time.
type watch struct {
	start time.Time
	cpu   float64
}

func startWatch() watch { return watch{start: time.Now(), cpu: cpuNow()} }

// interval is a measured interval in wall and process CPU seconds.
type interval struct{ wall, cpu float64 }

// stop returns the interval since the watch started.
func (w watch) stop() interval {
	return interval{time.Since(w.start).Seconds(), cpuNow() - w.cpu}
}

// threadWatch measures wall time and the CPU time of the calling
// goroutine's thread, which it locks the goroutine to until stop. It
// times single-goroutine work (a set-up, a single-worker engine)
// without the collector's background workers on other threads.
type threadWatch struct {
	start time.Time
	cpu   float64
}

func startThreadWatch() threadWatch {
	runtime.LockOSThread()
	return threadWatch{start: time.Now(), cpu: threadCPUNow()}
}

func (w threadWatch) stop() interval {
	iv := interval{time.Since(w.start).Seconds(), threadCPUNow() - w.cpu}
	runtime.UnlockOSThread()
	return iv
}
