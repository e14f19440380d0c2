package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The host kernel is a fixed piece of work that belongs to the benchmark
// and calls nothing of the repository: it fills a map with pseudo-random
// keys, appends them to a slice and sorts it, as the measured programs
// allocate, hash and sort. The sandbox is a small share of a shared host
// whose memory system is slower by a quarter or more for minutes at a time,
// and every time a run measures rises and falls with it. Over runs of
// unchanged code the kernel's time rises and falls with the workloads' in
// proportion (see README.md, "The host kernel"), so a run samples it after
// every window and reports its times divided by how much slower than the
// reference the host was while it ran.
//
// The kernel runs in a child process of its own, this binary started with
// kernelEnv set: its time depends on the state of the heap it allocates
// from, and in a process of its own that state is the same on every
// workload and at every commit.
const (
	kernelKeys = 30000
	// kernelRefMS is the kernel's usual time on the 2-core box the op counts
	// were calibrated on. It only fixes the scale of the reported times:
	// what matters is that it never changes.
	kernelRefMS = 6.5
	// kernelBallast keeps the child's collector out of most samples: a
	// cycle starts once the two goroutines have allocated this much again.
	kernelBallast = 32 << 20
	// kernelSpin wakes the child's threads before the timed part: iterations
	// of an integer loop, about 10 ms.
	kernelSpin = 5_000_000
	kernelEnv  = "IDXFLOW_BENCH_KERNEL"
)

// kernelSink keeps the compiler from discarding the kernel's work.
var kernelSink uint64

// kernelMS runs the kernel on par goroutines at once and returns their mean
// time in ms.
func kernelMS(par int) float64 {
	var mu sync.Mutex
	var sumMS float64
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(g + 1)
			for i := 0; i < kernelSpin; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				x ^= x >> 29
			}
			start := time.Now()
			m := make(map[uint64]int)
			keys := make([]uint64, 0, kernelKeys)
			for i := 0; i < kernelKeys; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				m[x>>20] = i
				keys = append(keys, x>>20)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			ms := time.Since(start).Seconds() * 1e3
			mu.Lock()
			sumMS += ms
			kernelSink += keys[0] + uint64(len(m))
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sumMS / float64(par)
}

// kernelChild is the child process's main: one sample per line read from
// standard input, until it is closed.
func kernelChild(par int) {
	ballast := make([]byte, kernelBallast)
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			break
		}
		fmt.Println(strconv.FormatFloat(kernelMS(par), 'g', -1, 64))
	}
	kernelSink += uint64(ballast[0])
}

// hostKernel is a running kernel child.
type hostKernel struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startHostKernel starts this binary as a kernel child that samples on par
// goroutines, as many as the workload keeps busy.
func startHostKernel(par int) (*hostKernel, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	k := &hostKernel{cmd: exec.Command(self)}
	k.cmd.Env = append(os.Environ(), kernelEnv+"="+strconv.Itoa(par))
	k.cmd.Stderr = os.Stderr
	// The child must not outlive a driver that is killed.
	k.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if k.in, err = k.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := k.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	k.out = bufio.NewReader(out)
	if err := k.cmd.Start(); err != nil {
		return nil, err
	}
	return k, nil
}

// sampleMS has the child run the kernel once and returns its time.
func (k *hostKernel) sampleMS() (float64, error) {
	if _, err := io.WriteString(k.in, "\n"); err != nil {
		return 0, fmt.Errorf("host kernel: %w", err)
	}
	line, err := k.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("host kernel: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// stop ends the child and waits until it has ended.
func (k *hostKernel) stop() {
	k.in.Close()
	k.cmd.Wait()
}
