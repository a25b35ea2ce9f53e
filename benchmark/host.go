package main

import (
	"bytes"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host-side accounting: CPU time, peak memory and descriptor counts of
// the processes under test, read from getrusage and /proc (Linux).

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// It is 100 on every Linux platform Go supports.
const clockTick = 100

// procStat returns a process's parent pid and its user+system CPU time.
func procStat(pid int) (ppid int, cpu time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces and parentheses;
	// the fixed fields start after the last ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ppid, _ = strconv.Atoi(f[1]) // field 4
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return ppid, time.Duration(utime+stime) * time.Second / clockTick, nil
}

// childrenCPU sums the CPU time of the given child processes.
func childrenCPU(pids []int) time.Duration {
	var sum time.Duration
	for _, pid := range pids {
		if _, cpu, err := procStat(pid); err == nil {
			sum += cpu
		}
	}
	return sum
}

// childPIDs lists the live processes whose parent is this process.
func childPIDs() map[int]bool {
	out := map[int]bool{}
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return out
	}
	self := os.Getpid()
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if ppid, _, err := procStat(pid); err == nil && ppid == self {
			out[pid] = true
		}
	}
	return out
}

// peakRSSMB returns a process's resident-set high-water mark (VmHWM) in
// MB; pid 0 means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// heapCounts are a process's cumulative heap allocation counters.
type heapCounts struct{ mallocs, bytes uint64 }

func (h heapCounts) sub(o heapCounts) heapCounts {
	return heapCounts{h.mallocs - o.mallocs, h.bytes - o.bytes}
}

func (h *heapCounts) add(o heapCounts) {
	h.mallocs += o.mallocs
	h.bytes += o.bytes
}

func readHeap() heapCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounts{ms.Mallocs, ms.TotalAlloc}
}

// heapDirEnv names the directory in which cluster workers answer SIGUSR1
// with their heap counters. A worker is a re-executed copy of this binary,
// so its Go heap can be read from outside only if the copy reports it.
const heapDirEnv = "STPBENCH_HEAP_DIR"

func heapFile(dir string, pid int) string {
	return filepath.Join(dir, fmt.Sprintf("heap.%d", pid))
}

// reportHeapOnSignal runs in a cluster worker: on every SIGUSR1 it writes
// its counters to heap.<pid> under dir (renamed into place, so a reader
// never sees half a file). It must be installed before the worker serves:
// an unhandled SIGUSR1 would kill the process.
func reportHeapOnSignal(dir string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR1)
	go func() {
		path := heapFile(dir, os.Getpid())
		for range sig {
			h := readHeap()
			if os.WriteFile(path+".tmp", fmt.Appendf(nil, "%d %d\n", h.mallocs, h.bytes), 0o644) == nil {
				os.Rename(path+".tmp", path)
			}
		}
	}()
}

// workersHeap asks every worker for its heap counters and sums them.
func workersHeap(dir string, pids []int) (heapCounts, error) {
	var sum heapCounts
	for _, pid := range pids {
		os.Remove(heapFile(dir, pid))
		if err := syscall.Kill(pid, syscall.SIGUSR1); err != nil {
			return sum, fmt.Errorf("worker %d: %v", pid, err)
		}
	}
	for _, pid := range pids {
		path := heapFile(dir, pid)
		var h heapCounts
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
			data, err := os.ReadFile(path)
			if err == nil {
				_, err = fmt.Sscan(string(data), &h.mallocs, &h.bytes)
			}
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return sum, fmt.Errorf("worker %d did not report its heap counters: %v", pid, err)
			}
		}
		os.Remove(path)
		sum.add(h)
	}
	return sum, nil
}

// openFDs counts a process's open descriptors; pid 0 means this process.
func openFDs(pid int) int {
	dir := "/proc/self/fd"
	if pid != 0 {
		dir = fmt.Sprintf("/proc/%d/fd", pid)
	}
	f, err := os.Open(dir)
	if err != nil {
		return -1
	}
	defer f.Close()
	names, _ := f.Readdirnames(-1)
	return len(names)
}

// calibrate times a fixed spin loop. It measures the host, not the
// program: a round whose calib_ns is high ran on a slow or contended
// machine, which explains drift that no layer caused.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start))
}

var calibSink uint64
