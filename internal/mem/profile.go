package mem

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"daydream/internal/core"
)

// DeviceGPU is the device key activations and resident state live on.
// Single-accelerator traces (every graph the framework emits today) put
// all GPU streams on one device; the per-device structure is kept so
// multi-device annotations slot in without an API change.
const DeviceGPU = "gpu0"

// Sample is one breakpoint of a device timeline: Bytes are allocated
// from simulated instant T until the next sample's T.
type Sample struct {
	T     time.Duration
	Bytes int64
}

// TensorUse attributes part of a profile to one tensor: its identity
// plus the simulated interval it occupied memory.
type TensorUse struct {
	Layer      string
	LayerIndex int
	Round      int
	Bytes      int64
	Alloc      time.Duration
	Free       time.Duration
}

// DeviceProfile is one device's memory timeline.
type DeviceProfile struct {
	Device string
	// Resident is the constant baseline (parameters + gradients).
	Resident int64
	// Peak is the maximum allocated bytes over the timeline, resident
	// included; it holds over [PeakStart, PeakEnd).
	Peak      int64
	PeakStart time.Duration
	PeakEnd   time.Duration
	// Timeline holds one sample per distinct event instant, starting at
	// {0, Resident-or-first-allocs}. Allocated bytes return to Resident
	// at the final sample: every tracked alloc has a matching free.
	Timeline []Sample
	// PeakTensors are the tensors live at PeakStart, largest first —
	// the layers to shrink, offload or recompute to lower the peak.
	PeakTensors []TensorUse
}

// Profile is the memory-timeline result of one simulation: a
// SimResult-adjacent post-pass product, keyed by device.
type Profile struct {
	Devices map[string]*DeviceProfile
}

// Device returns the named device's profile, or nil.
func (p *Profile) Device(name string) *DeviceProfile { return p.Devices[name] }

// Peak returns the named device's peak bytes (0 when absent).
func (p *Profile) Peak(device string) int64 {
	if d := p.Devices[device]; d != nil {
		return d.Peak
	}
	return 0
}

// MaxPeak returns the largest peak across devices — the number a
// single-accelerator capacity check compares against.
func (p *Profile) MaxPeak() int64 {
	var max int64
	for _, d := range p.Devices {
		if d.Peak > max {
			max = d.Peak
		}
	}
	return max
}

// MemMeasurer is the optional interface of optimizations whose graph
// surgery changes activation residency — vDNN's offload/prefetch
// copies, Gist's encode/decode compression, recompute-style rewrites.
// RewriteTensors maps the baseline tensor schedule onto the optimized
// view (splitting, shrinking or re-anchoring tensors against the tasks
// the optimization inserted) so ComputeProfile reports the
// optimization's predicted memory effect alongside its makespan. The
// view is whatever the simulation ran over — a Patch or a materialized
// clone — and must be treated as read-only; implementations must be
// deterministic and must not retain the view or the input slice.
type MemMeasurer interface {
	RewriteTensors(view core.TaskView, tensors []Tensor) ([]Tensor, error)
}

// MeasurersOf collects the MemMeasurer implementations of opt,
// unwrapping core.Stack parts in application order.
func MeasurersOf(opt core.Optimization) []MemMeasurer {
	var out []MemMeasurer
	for _, part := range core.StackParts(opt) {
		if m, ok := part.(MemMeasurer); ok {
			out = append(out, m)
		}
	}
	return out
}

// memEvent is one alloc (+bytes) or free (-bytes) at a simulated
// instant; idx orders simultaneous same-sign events deterministically.
type memEvent struct {
	t     time.Duration
	delta int64
	idx   int
}

// compareEvents orders the post-pass's events: by instant, frees before
// allocs at equal instants (a tensor freed the moment another allocates
// never overlaps it), then by tensor — fully deterministic, so clone and
// view profiles match bit for bit. Events it calls equal are identical.
func compareEvents(a, b memEvent) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	if af, bf := a.delta < 0, b.delta < 0; af != bf {
		if af {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// peakRef is a tensor live at the peak: its size and its index.
type peakRef struct {
	bytes int64
	idx   int
}

// ComputeProfile sweeps the annotation's alloc/free events over a
// finished simulation and returns the per-device profile. It is a pure
// post-pass: view and res are only read (starts via res.Start,
// effective durations via res.TaskDuration), so the SimResult is
// bit-identical before and after, on every tier. Tensors whose producer
// is not live in the view are skipped (a Patch that removed the task);
// dead consumers simply drop out of the free-time max, with the
// producer's finish as the floor. Rewriters from measurers apply in
// order before the sweep.
func ComputeProfile(view core.TaskView, res *core.SimResult, ann *Annotation, measurers ...MemMeasurer) (*Profile, error) {
	if ann == nil {
		return nil, fmt.Errorf("mem: ComputeProfile: nil annotation")
	}
	if res.Windowed() {
		// The memory post-pass needs every producer/consumer start, but a
		// round-windowed result retired most of them. Documented
		// fallback: re-simulate the view unwindowed (ProfileOpt always
		// does) — the memory timeline is inherently O(ID span) anyway.
		return nil, fmt.Errorf("mem: ComputeProfile: %w", core.ErrWindowedResult)
	}
	if len(res.Start) < ann.span {
		return nil, fmt.Errorf("mem: ComputeProfile: result spans %d task IDs but the annotation was built over %d; profile with a result simulated from the annotated baseline", len(res.Start), ann.span)
	}
	tensors := ann.Tensors
	for _, m := range measurers {
		var err error
		if tensors, err = m.RewriteTensors(view, tensors); err != nil {
			return nil, err
		}
	}

	type span struct {
		alloc, free time.Duration
		live        bool
	}
	spans := make([]span, len(tensors))
	events := make([]memEvent, 0, 2*len(tensors))
	for i, tn := range tensors {
		prod := view.Task(tn.Producer)
		if prod == nil {
			continue
		}
		alloc := res.Start[prod.ID]
		free := alloc + res.TaskDuration(prod)
		for _, cid := range tn.Consumers {
			c := view.Task(cid)
			if c == nil {
				continue
			}
			if f := res.Finish(c); f > free {
				free = f
			}
		}
		spans[i] = span{alloc: alloc, free: free, live: true}
		events = append(events,
			memEvent{t: alloc, delta: tn.Bytes, idx: i},
			memEvent{t: free, delta: -tn.Bytes, idx: i},
		)
	}
	slices.SortFunc(events, compareEvents)

	d := &DeviceProfile{Device: DeviceGPU, Resident: ann.Resident}
	cur := ann.Resident
	d.Peak, d.PeakStart = cur, 0
	peakIdx := 0
	d.Timeline = make([]Sample, 1, len(events)+1)
	d.Timeline[0] = Sample{T: 0, Bytes: cur}
	for i := 0; i < len(events); {
		t := events[i].t
		for i < len(events) && events[i].t == t {
			cur += events[i].delta
			i++
		}
		if t == 0 {
			d.Timeline[0].Bytes = cur
		} else {
			d.Timeline = append(d.Timeline, Sample{T: t, Bytes: cur})
		}
		if cur > d.Peak {
			d.Peak = cur
			d.PeakStart = t
			peakIdx = len(d.Timeline) - 1
		}
	}
	if peakIdx+1 < len(d.Timeline) {
		d.PeakEnd = d.Timeline[peakIdx+1].T
	} else {
		d.PeakEnd = res.Makespan
	}
	// The tensors live at the peak, largest first and in tensor order
	// among equals: sorted as pointer-free (bytes, index) pairs, then
	// copied out in that order.
	var live []peakRef
	for i, sp := range spans {
		if sp.live && sp.alloc <= d.PeakStart && sp.free > d.PeakStart {
			live = append(live, peakRef{bytes: tensors[i].Bytes, idx: i})
		}
	}
	slices.SortFunc(live, func(a, b peakRef) int {
		if c := cmp.Compare(b.bytes, a.bytes); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	if len(live) > 0 {
		d.PeakTensors = make([]TensorUse, len(live))
	}
	for j, r := range live {
		tn, sp := &tensors[r.idx], spans[r.idx]
		d.PeakTensors[j] = TensorUse{
			Layer:      tn.Layer,
			LayerIndex: tn.LayerIndex,
			Round:      tn.Round,
			Bytes:      tn.Bytes,
			Alloc:      sp.alloc,
			Free:       sp.free,
		}
	}
	return &Profile{Devices: map[string]*DeviceProfile{DeviceGPU: d}}, nil
}

// ProfileOpt runs the full memory-aware prediction pipeline for one
// optimization: apply opt through a Patch over the baseline (repeated
// first when opt declares several rounds, see core.OptBaseline),
// simulate under the opt's carried scheduler, then profile with the
// opt's MemMeasurer rewrites — predicted makespan and predicted memory,
// from one simulation. A nil or no-op opt profiles the baseline itself.
func ProfileOpt(g *core.Graph, opt core.Optimization, simOpts ...core.SimOption) (time.Duration, *Profile, error) {
	if sched := core.OptScheduler(opt); sched != nil {
		simOpts = append(simOpts, core.WithScheduler(sched))
	}
	if core.OptIsNoop(opt) {
		ann, err := AnnotationOf(g)
		if err != nil {
			return 0, nil, err
		}
		res, err := g.Simulate(simOpts...)
		if err != nil {
			return 0, nil, err
		}
		prof, err := ComputeProfile(g, res, ann)
		if err != nil {
			return 0, nil, err
		}
		return res.Makespan, prof, nil
	}
	g, apply, err := core.OptBaseline(g, opt)
	if err != nil {
		return 0, nil, err
	}
	ann, err := AnnotationOf(g)
	if err != nil {
		return 0, nil, err
	}
	p := core.NewPatch(g)
	if err := apply.Apply(p); err != nil {
		return 0, nil, err
	}
	res, err := p.Simulate(simOpts...)
	if err != nil {
		return 0, nil, err
	}
	prof, err := ComputeProfile(p, res, ann, MeasurersOf(opt)...)
	if err != nil {
		return 0, nil, err
	}
	return res.Makespan, prof, nil
}
