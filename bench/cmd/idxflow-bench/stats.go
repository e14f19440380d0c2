package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
// xs need not be sorted and is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s))*q - 1e-9)) // q*n can land a hair above an integer
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go runs on.
const clockTicksPerSecond = 100

// procCPUSeconds returns the user+system CPU time pid has used, summed over
// its threads, from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat of pid %d: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat of pid %d: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat of pid %d: bad utime/stime", pid)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// selfCPUSeconds returns this process's user+system CPU time.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMB returns pid's resident-set high-water mark in MB, from the
// "VmHWM:  N kB" line of /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("status of pid %d: no VmHWM", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// size, so that each block reports its own peak. Where the kernel refuses
// the write, the peak stays that of the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfWrittenBytes returns the bytes this process has passed to write
// calls (wchar of /proc/self/io), or 0 where the file is not readable.
func selfWrittenBytes() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}

// window is the throughput and CPU cost of a run of consecutive ops, and
// the host kernel's time sampled right after them. The sandbox's speed
// drifts by a tenth or more for seconds at a time; a run reports medians
// over its windows of a second or two, which ignores the drifts shorter than
// half a run that a mean over the run would absorb. The kernel samples
// account for the drifts that outlast the run.
type window struct{ opsPerS, cpuMSPerOp, kernelMS float64 }

func newWindow(ops int, wallS, cpuS, kernelMS float64) window {
	return window{float64(ops) / wallS, cpuS / float64(ops) * 1e3, kernelMS}
}
