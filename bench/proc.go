package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a process's cumulative cost at one instant. For this
// process it comes from the Go runtime and getrusage; for the daemon
// child only CPU time is visible (/proc/<pid>/stat), so a served
// workload reports no allocation or GC pause.
type procSnap struct {
	allocBytes uint64
	gcPause    time.Duration
	cpu        time.Duration
}

func (a procSnap) minus(b procSnap) procSnap {
	return procSnap{a.allocBytes - b.allocBytes, a.gcPause - b.gcPause, a.cpu - b.cpu}
}

func (a procSnap) plus(b procSnap) procSnap {
	return procSnap{a.allocBytes + b.allocBytes, a.gcPause + b.gcPause, a.cpu + b.cpu}
}

// snapProc snapshots this process (pid 0) or a child.
func snapProc(pid int) procSnap {
	if pid != 0 {
		return procSnap{cpu: childCPU(pid)}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := procSnap{allocBytes: m.TotalAlloc, gcPause: time.Duration(m.PauseTotalNs)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

// childCPU reads a process's user+system CPU time, 0 when unreadable.
func childCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, _ := strconv.ParseInt(f[12], 10, 64) // field 15
	return time.Duration(utime+stime) * clockTick
}

// peakRSSMB reads a process's resident-set high-water mark (pid 0: this
// process), 0 when unreadable.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	kb, _ := strconv.ParseFloat(procField(path, "VmHWM:"), 64)
	return kb / 1024
}

// procField returns the first word after the key of a "key value" line
// of a /proc text file, "" when absent.
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return f[0]
			}
		}
	}
	return ""
}
