// Package trace defines the CUPTI-shaped activity records that Daydream
// consumes. A Trace is the result of profiling one training iteration: a
// flat list of timestamped activities (CUDA runtime API calls, GPU kernels,
// memory copies, synchronizations, data-loading and communication tasks)
// plus the lightweight framework instrumentation the paper adds on top of
// CUPTI — per-layer phase spans and gradient/bucket metadata.
//
// Real Daydream obtains these records from CUPTI and from small patches to
// PyTorch/MXNet/Caffe. This reproduction obtains them from the synthetic
// training executor in internal/framework, which emits exactly the same
// shape of data: names, start/duration timestamps, CPU thread IDs, GPU
// stream IDs, and CUDA correlation IDs.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Kind classifies an activity record, mirroring the CUPTI activity kinds
// Daydream cares about plus the two task types the paper adds (data loading
// and communication).
type Kind int

const (
	// KindCPUOp is a framework-level CPU operation: operator dispatch,
	// Python-to-C++ boundary work, optimizer bookkeeping. CUPTI does not
	// report these directly; the paper captures their effect as inter-task
	// gaps, but the synthetic tracer also reports the portions it can see.
	KindCPUOp Kind = iota
	// KindLaunch is a cudaLaunchKernel runtime API call on a CPU thread.
	KindLaunch
	// KindMemcpyAPI is a cudaMemcpy/cudaMemcpyAsync call on a CPU thread.
	KindMemcpyAPI
	// KindSync is a CUDA synchronization API call (cudaDeviceSynchronize,
	// cudaStreamSynchronize) on a CPU thread. It completes only after the
	// GPU work launched before it completes.
	KindSync
	// KindMalloc is a cudaMalloc/cudaFree style allocation API call.
	KindMalloc
	// KindKernel is a GPU kernel execution on a CUDA stream.
	KindKernel
	// KindMemcpy is the GPU-side execution of a memory copy on a stream.
	KindMemcpy
	// KindDataLoad is a data-loading task: one mini-batch moved from
	// disk/flash into host memory by a loader thread.
	KindDataLoad
	// KindComm is a communication primitive: an all-reduce, push, pull,
	// reduce-scatter or all-gather executing on a communication channel.
	KindComm
)

var kindNames = [...]string{
	KindCPUOp:     "cpu_op",
	KindLaunch:    "cuda_launch",
	KindMemcpyAPI: "memcpy_api",
	KindSync:      "cuda_sync",
	KindMalloc:    "cuda_malloc",
	KindKernel:    "kernel",
	KindMemcpy:    "memcpy",
	KindDataLoad:  "data_load",
	KindComm:      "comm",
}

// String returns the stable lower-case name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// OnCPU reports whether activities of this kind occupy a CPU thread.
func (k Kind) OnCPU() bool {
	switch k {
	case KindCPUOp, KindLaunch, KindMemcpyAPI, KindSync, KindMalloc, KindDataLoad:
		return true
	}
	return false
}

// OnGPU reports whether activities of this kind occupy a GPU stream.
func (k Kind) OnGPU() bool {
	return k == KindKernel || k == KindMemcpy
}

// OnChannel reports whether activities of this kind occupy a communication
// channel.
func (k Kind) OnChannel() bool { return k == KindComm }

// MemcpyDir describes the direction of a memory copy.
type MemcpyDir int

// Memory copy directions.
const (
	MemcpyNone MemcpyDir = iota
	MemcpyH2D            // host to device
	MemcpyD2H            // device to host
	MemcpyD2D            // device to device
)

// String returns the conventional CUDA abbreviation for the direction.
func (d MemcpyDir) String() string {
	switch d {
	case MemcpyH2D:
		return "HtoD"
	case MemcpyD2H:
		return "DtoH"
	case MemcpyD2D:
		return "DtoD"
	}
	return "none"
}

// Phase identifies which of the three per-iteration phases a layer span
// belongs to.
type Phase int

// Training phases of one iteration.
const (
	Forward Phase = iota
	Backward
	WeightUpdate
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case WeightUpdate:
		return "weight_update"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Activity is one CUPTI-shaped trace record. Exactly one of the location
// fields is meaningful, depending on Kind: Thread for CPU-side records,
// Stream for GPU-side records, Channel for communication records.
type Activity struct {
	// ID is a unique, monotonically increasing record identifier.
	ID int `json:"id"`
	// Name is the API or kernel name, e.g. "cudaLaunchKernel",
	// "volta_sgemm_128x64_nn", "elementwise_kernel", "ncclAllReduce".
	Name string `json:"name"`
	// Kind classifies the record.
	Kind Kind `json:"kind"`
	// Start is the offset of the record from the start of the iteration.
	Start time.Duration `json:"start"`
	// Duration is how long the activity occupied its execution thread.
	Duration time.Duration `json:"duration"`
	// Thread is the CPU thread ID for CPU-side records.
	Thread int `json:"thread"`
	// Stream is the CUDA stream ID for GPU-side records.
	Stream int `json:"stream"`
	// Channel is the communication channel name for KindComm records
	// (e.g. "nccl", "ps.send", "ps.recv").
	Channel string `json:"channel,omitempty"`
	// Correlation links a runtime API call (cudaLaunchKernel,
	// cudaMemcpyAsync) to the GPU-side activity it triggered. Zero means
	// no correlation. CUPTI provides exactly this field.
	Correlation uint64 `json:"correlation,omitempty"`
	// Bytes is the payload size for memory copies, communication
	// primitives and data loads.
	Bytes int64 `json:"bytes,omitempty"`
	// Dir is the memory copy direction, if applicable.
	Dir MemcpyDir `json:"dir,omitempty"`
}

// End returns Start+Duration.
func (a *Activity) End() time.Duration { return a.Start + a.Duration }

// LayerSpan is one record of the framework instrumentation described in
// paper §4.3: the wall-clock interval during which the framework's CPU
// thread was inside the forward/backward/weight-update method of one layer.
// Daydream's synchronization-free mapping brackets CUDA launch calls with
// these spans and propagates the layer to GPU kernels via correlation IDs.
type LayerSpan struct {
	// Layer is the framework-level layer name, e.g. "layer3.2.conv1".
	Layer string `json:"layer"`
	// Index is the topological index of the layer in the model.
	Index int `json:"index"`
	// Phase is the training phase this span covers.
	Phase Phase `json:"phase"`
	// Thread is the CPU thread the span was recorded on.
	Thread int `json:"thread"`
	// Start and End delimit the span.
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
}

// GradientInfo is the per-layer gradient metadata the paper collects with
// extra framework instrumentation (§4.1 phase 1): the size of the gradient
// each layer produces and, for PyTorch-style frameworks, which DDP bucket
// the gradient is grouped into.
type GradientInfo struct {
	// Layer is the layer name the gradient belongs to.
	Layer string `json:"layer"`
	// Index is the topological index of the layer.
	Index int `json:"index"`
	// Bytes is the gradient payload size.
	Bytes int64 `json:"bytes"`
	// Bucket is the DDP gradient bucket this layer's gradient is grouped
	// into; -1 if the framework does not bucket.
	Bucket int `json:"bucket"`
	// ActBytes is the layer's output activation size, used by
	// memory-footprint what-ifs (vDNN, Gist).
	ActBytes int64 `json:"act_bytes,omitempty"`
	// Kind is the framework-level operator type name ("conv",
	// "batchnorm", "relu", ...), part of the per-layer metadata the
	// instrumentation reports.
	Kind string `json:"op_kind,omitempty"`
}

// Trace is the complete profiling result for one training iteration.
type Trace struct {
	// Model is the DNN model name, e.g. "ResNet-50".
	Model string `json:"model"`
	// Framework identifies the framework dialect that produced the trace
	// ("pytorch", "mxnet", "caffe").
	Framework string `json:"framework"`
	// Device is the accelerator the trace was collected on.
	Device string `json:"device"`
	// BatchSize is the per-worker mini-batch size.
	BatchSize int `json:"batch_size"`
	// Precision records the numeric precision of the run ("fp32","fp16").
	Precision string `json:"precision"`
	// IterationTime is the measured wall-clock time of the iteration.
	IterationTime time.Duration `json:"iteration_time"`
	// Activities are the CUPTI-shaped records, in no particular order.
	Activities []Activity `json:"activities"`
	// LayerSpans is the per-layer instrumentation.
	LayerSpans []LayerSpan `json:"layer_spans"`
	// Gradients is the per-layer gradient metadata.
	Gradients []GradientInfo `json:"gradients"`
}

// SortByStart orders activities by start time, breaking ties by ID. Most
// consumers want this ordering; the tracer already emits it, but traces
// loaded from disk may not be sorted.
func (t *Trace) SortByStart() {
	sort.SliceStable(t.Activities, func(i, j int) bool {
		ai, aj := &t.Activities[i], &t.Activities[j]
		if ai.Start != aj.Start {
			return ai.Start < aj.Start
		}
		return ai.ID < aj.ID
	})
}

// CPUThreads returns the sorted set of CPU thread IDs present in the trace.
func (t *Trace) CPUThreads() []int {
	return t.locations(func(a *Activity) (int, bool) {
		return a.Thread, a.Kind.OnCPU()
	})
}

// Streams returns the sorted set of GPU stream IDs present in the trace.
func (t *Trace) Streams() []int {
	return t.locations(func(a *Activity) (int, bool) {
		return a.Stream, a.Kind.OnGPU()
	})
}

func (t *Trace) locations(f func(*Activity) (int, bool)) []int {
	seen := make(map[int]bool)
	for i := range t.Activities {
		if id, ok := f(&t.Activities[i]); ok {
			seen[id] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Validate checks structural invariants of the trace: non-negative,
// non-overflowing times, unique IDs, correlation IDs pairing exactly one
// API call with exactly one GPU activity, and layer spans with
// non-inverted intervals. It returns the first violation found, wrapped
// in the matching sentinel from the package's error taxonomy
// (ErrNegativeTime, ErrTimeOverflow, ErrDuplicateID, ErrBadCorrelation,
// ErrSpanInverted) so callers can classify with errors.Is.
func (t *Trace) Validate() error {
	if err := validateActivities(t.Activities, true); err != nil {
		return err
	}
	for i := range t.LayerSpans {
		s := &t.LayerSpans[i]
		if s.Start < 0 {
			return fmt.Errorf("%w: layer span %q %s starts at %v", ErrNegativeTime, s.Layer, s.Phase, s.Start)
		}
		if s.End < s.Start {
			return fmt.Errorf("%w: layer span %q %s has End %v < Start %v", ErrSpanInverted, s.Layer, s.Phase, s.End, s.Start)
		}
	}
	return nil
}

// validateActivities checks the activity records for Validate. The first
// bad activity in slice order wins. Correlations are checked once every
// record is counted; the reported one is the first bad correlation of an
// API record, or failing that of a GPU record, in slice order.
//
// Activity IDs and correlations are counted in flat arrays when their
// ranges are dense, within denseSpan(n) values (the tracer numbers both
// sequentially), and in maps otherwise; allowDense=false forces the maps.
// Both give the same answer.
func validateActivities(acts []Activity, allowDense bool) error {
	var b recordBook
	b.init(acts, allowDense)
	for i := range acts {
		a := &acts[i]
		if a.Start < 0 || a.Duration < 0 {
			return fmt.Errorf("%w: activity %d (%s) has start %v, duration %v", ErrNegativeTime, a.ID, a.Name, a.Start, a.Duration)
		}
		if a.Duration > math.MaxInt64-a.Start {
			return fmt.Errorf("%w: activity %d (%s) ends past the time axis (start %v + duration %v)", ErrTimeOverflow, a.ID, a.Name, a.Start, a.Duration)
		}
		if !b.addID(a.ID) {
			return fmt.Errorf("%w: activity ID %d", ErrDuplicateID, a.ID)
		}
		if a.Correlation != 0 {
			switch {
			case a.Kind.OnCPU():
				b.addCorr(a.Correlation, apiOne)
			case a.Kind.OnGPU():
				b.addCorr(a.Correlation, gpuOne)
			default:
				return fmt.Errorf("%w: activity %d (%s) of kind %s carries a correlation ID", ErrBadCorrelation, a.ID, a.Name, a.Kind)
			}
		}
	}
	if b.paired() {
		return nil
	}
	for _, cpuSide := range []bool{true, false} {
		for i := range acts {
			a := &acts[i]
			if c := a.Correlation; c != 0 && a.Kind.OnCPU() == cpuSide && !b.pairedOne(c) {
				nAPI, nGPU := 0, 0
				for j := range acts {
					if acts[j].Correlation == c {
						if acts[j].Kind.OnCPU() {
							nAPI++
						} else {
							nGPU++
						}
					}
				}
				return fmt.Errorf("%w: correlation %d pairs %d API records with %d GPU records; want 1 and 1", ErrBadCorrelation, c, nAPI, nGPU)
			}
		}
	}
	return nil
}

// denseSpan is the widest range of IDs or correlations, for n records,
// that validateActivities counts in flat arrays.
func denseSpan(n int) uint64 { return 8*uint64(n) + 64 }

// Correlation tallies: two bits per side, saturating at two records.
const (
	apiOne   = 1 << 0
	gpuOne   = 1 << 2
	pairOnce = apiOne | gpuOne
)

// recordBook tracks which activity IDs and correlations validateActivities
// has seen: a bitmap of IDs offset by the smallest and a byte of tallies
// per correlation when dense, maps otherwise.
type recordBook struct {
	minID   int
	idBits  []uint64
	ids     map[int]bool
	tallies []uint8
	api     map[uint64]int // correlation -> count of CPU-side records
	gpu     map[uint64]int // correlation -> count of GPU-side records
}

func (b *recordBook) init(acts []Activity, allowDense bool) {
	if len(acts) == 0 {
		return
	}
	minID, maxID := acts[0].ID, acts[0].ID
	var maxCorr uint64
	for i := range acts {
		a := &acts[i]
		minID, maxID = min(minID, a.ID), max(maxID, a.ID)
		maxCorr = max(maxCorr, a.Correlation)
	}
	span := denseSpan(len(acts))
	if allowDense && uint64(maxID)-uint64(minID) < span {
		b.minID = minID
		b.idBits = make([]uint64, (uint64(maxID)-uint64(minID))/64+1)
	} else {
		b.ids = make(map[int]bool, len(acts))
	}
	if allowDense && maxCorr < span {
		b.tallies = make([]uint8, maxCorr+1)
	} else {
		b.api = make(map[uint64]int)
		b.gpu = make(map[uint64]int)
	}
}

// addID records an activity ID, reporting false if it was seen before.
func (b *recordBook) addID(id int) bool {
	if b.idBits == nil {
		if b.ids[id] {
			return false
		}
		b.ids[id] = true
		return true
	}
	k := uint64(id) - uint64(b.minID)
	w, bit := k/64, uint64(1)<<(k%64)
	if b.idBits[w]&bit != 0 {
		return false
	}
	b.idBits[w] |= bit
	return true
}

// addCorr counts one record of correlation c on the side one names
// (apiOne or gpuOne).
func (b *recordBook) addCorr(c uint64, one uint8) {
	if b.tallies == nil {
		if one == apiOne {
			b.api[c]++
		} else {
			b.gpu[c]++
		}
		return
	}
	// A side's field saturates at 2 (binary 10): adding one to 01 gives
	// 10, and 10 stays.
	t := b.tallies[c]
	if t&(one<<1) == 0 {
		t += one
	}
	b.tallies[c] = t
}

// pairedOne reports whether correlation c pairs exactly one API record
// with exactly one GPU record.
func (b *recordBook) pairedOne(c uint64) bool {
	if b.tallies == nil {
		return b.api[c] == 1 && b.gpu[c] == 1
	}
	return b.tallies[c] == pairOnce
}

// paired reports whether every counted correlation pairs one API record
// with one GPU record.
func (b *recordBook) paired() bool {
	if b.tallies == nil {
		for c, n := range b.api {
			if n != 1 || b.gpu[c] != 1 {
				return false
			}
		}
		for c := range b.gpu {
			if b.api[c] != 1 {
				return false
			}
		}
		return true
	}
	for _, t := range b.tallies {
		if t != 0 && t != pairOnce {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	c := *t
	c.Activities = append([]Activity(nil), t.Activities...)
	c.LayerSpans = append([]LayerSpan(nil), t.LayerSpans...)
	c.Gradients = append([]GradientInfo(nil), t.Gradients...)
	return &c
}
