package trace

import (
	"sort"
	"time"
)

// Interval is a half-open time interval [Start, End).
type Interval struct {
	Start, End time.Duration
}

// Len returns the interval length.
func (iv Interval) Len() time.Duration { return iv.End - iv.Start }

// UnionLength returns the total length covered by the union of the given
// intervals. The input is not modified.
func UnionLength(ivs []Interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]Interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.Start <= cur.End {
			if iv.End > cur.End {
				cur.End = iv.End
			}
			continue
		}
		total += cur.Len()
		cur = iv
	}
	total += cur.Len()
	return total
}

// Breakdown is the paper's Figure-6 decomposition of one iteration into
// CPU-only, GPU-only and CPU+GPU-parallel runtime (§6.2 definitions).
type Breakdown struct {
	// CPUOnly is "the runtime when the CPU is busy, but the GPU is not
	// executing any kernels": total time minus GPU-busy time.
	CPUOnly time.Duration
	// GPUOnly is "the runtime when the CPU is waiting for the GPU
	// kernels to complete": the duration of CUDA synchronization APIs
	// plus device-to-host cudaMemcpyAsync calls.
	GPUOnly time.Duration
	// Parallel is the remainder: both CPU and GPU busy.
	Parallel time.Duration
}

// Total returns the sum of the three components.
func (b Breakdown) Total() time.Duration { return b.CPUOnly + b.GPUOnly + b.Parallel }

// ComputeBreakdown decomposes the trace exactly as the paper's §6.2 does:
// CPU-only is computed "by simply subtracting all GPU kernel runtime from
// the total runtime"; GPU-only is the union of synchronization-API and
// blocking device-to-host copy intervals; CPU+GPU parallel is the rest.
func ComputeBreakdown(t *Trace) Breakdown {
	var gpu, wait []Interval
	for i := range t.Activities {
		a := &t.Activities[i]
		iv := Interval{a.Start, a.End()}
		switch {
		case a.Kind.OnGPU():
			gpu = append(gpu, iv)
		case a.Kind == KindSync || (a.Kind == KindMemcpyAPI && a.Dir == MemcpyD2H):
			wait = append(wait, iv)
		}
	}
	total := t.IterationTime
	if total == 0 {
		total = ComputeStats(t).Span
	}
	gpuBusy := UnionLength(gpu)
	gpuOnly := UnionLength(wait)
	if gpuOnly > gpuBusy {
		gpuOnly = gpuBusy
	}
	cpuOnly := total - gpuBusy
	if cpuOnly < 0 {
		cpuOnly = 0
	}
	return Breakdown{
		CPUOnly:  cpuOnly,
		GPUOnly:  gpuOnly,
		Parallel: gpuBusy - gpuOnly,
	}
}

// Stats summarizes a trace.
type Stats struct {
	// Count is the number of activities of each kind.
	Count map[Kind]int
	// Busy is the summed duration of activities of each kind.
	Busy map[Kind]time.Duration
	// GPUBusy is the union-length of GPU stream occupancy.
	GPUBusy time.Duration
	// CPUBusy is the union-length of CPU thread occupancy.
	CPUBusy time.Duration
	// Span is the distance from the earliest start to the latest end.
	Span time.Duration
}

// ComputeStats summarizes the trace.
func ComputeStats(t *Trace) Stats {
	st := Stats{
		Count: make(map[Kind]int),
		Busy:  make(map[Kind]time.Duration),
	}
	var cpu, gpu []Interval
	var lo, hi time.Duration
	first := true
	for i := range t.Activities {
		a := &t.Activities[i]
		st.Count[a.Kind]++
		st.Busy[a.Kind] += a.Duration
		iv := Interval{a.Start, a.End()}
		if a.Kind.OnCPU() {
			cpu = append(cpu, iv)
		}
		if a.Kind.OnGPU() {
			gpu = append(gpu, iv)
		}
		if first || iv.Start < lo {
			lo = iv.Start
		}
		if first || iv.End > hi {
			hi = iv.End
		}
		first = false
	}
	st.CPUBusy = UnionLength(cpu)
	st.GPUBusy = UnionLength(gpu)
	if !first {
		st.Span = hi - lo
	}
	return st
}
