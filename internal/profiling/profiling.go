// Package profiling wires the conventional -cpuprofile/-memprofile flags
// into a command without each main duplicating the pprof plumbing, and holds
// the create/stream/close helper their other output-file flags share.
package profiling

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling when cpuPath is non-empty and returns the
// stop function to defer in main: it finishes the CPU profile and, when
// memPath is non-empty, writes an allocation (heap) profile. A profiling
// failure is reported on stderr but never aborts the run.
func Start(cpuPath, memPath string) (stop func()) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		} else if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			f.Close()
		} else {
			cpuFile = f
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if memPath == "" {
			return
		}
		// Flush pending frees so the profile reflects live data accurately.
		runtime.GC()
		write := func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) }
		if err := WriteFile(memPath, write); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}
}

// WriteFile creates path and streams write's output into it: the -trace and
// -events writers of every command.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
