// Package prof gives the command-line tools their -cpuprofile and
// -memprofile flags: runtime/pprof profiles of one command's run, read
// with `go tool pprof`.
package prof

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags are the profile paths a command was asked for; empty means none.
type Flags struct {
	CPU, Mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile, taken when the run ends, to this file")
	return f
}

// Start begins the CPU profile, if one was asked for. The returned stop
// ends it and writes the heap profile, if one was asked for, after a
// garbage collection, as `go test -memprofile` does; call it once, when
// the run ends.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if f.Mem != "" {
			errs = append(errs, writeHeap(f.Mem))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
