package mem

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/trace"
)

// referenceProfile is ComputeProfile's sweep as first written, ordering
// its events with sort.Slice and the peak tensors with sort.SliceStable.
// It pins the tie order the typed sorts must keep.
func referenceProfile(view core.TaskView, res *core.SimResult, ann *Annotation) *DeviceProfile {
	tensors := ann.Tensors
	type span struct {
		alloc, free time.Duration
		live        bool
	}
	spans := make([]span, len(tensors))
	var events []memEvent
	for i, tn := range tensors {
		prod := view.Task(tn.Producer)
		if prod == nil {
			continue
		}
		alloc := res.Start[prod.ID]
		free := alloc + res.TaskDuration(prod)
		for _, cid := range tn.Consumers {
			if c := view.Task(cid); c != nil && res.Finish(c) > free {
				free = res.Finish(c)
			}
		}
		spans[i] = span{alloc: alloc, free: free, live: true}
		events = append(events,
			memEvent{t: alloc, delta: tn.Bytes, idx: i},
			memEvent{t: free, delta: -tn.Bytes, idx: i},
		)
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if (a.delta < 0) != (b.delta < 0) {
			return a.delta < 0
		}
		return a.idx < b.idx
	})
	d := &DeviceProfile{Device: DeviceGPU, Resident: ann.Resident}
	cur := ann.Resident
	d.Peak = cur
	peakIdx := 0
	d.Timeline = append(d.Timeline, Sample{T: 0, Bytes: cur})
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
			d.Peak, d.PeakStart, peakIdx = cur, t, len(d.Timeline)-1
		}
	}
	if peakIdx+1 < len(d.Timeline) {
		d.PeakEnd = d.Timeline[peakIdx+1].T
	} else {
		d.PeakEnd = res.Makespan
	}
	for i, tn := range tensors {
		sp := spans[i]
		if !sp.live || sp.alloc > d.PeakStart || sp.free <= d.PeakStart {
			continue
		}
		d.PeakTensors = append(d.PeakTensors, TensorUse{
			Layer: tn.Layer, LayerIndex: tn.LayerIndex, Round: tn.Round,
			Bytes: tn.Bytes, Alloc: sp.alloc, Free: sp.free,
		})
	}
	sort.SliceStable(d.PeakTensors, func(i, j int) bool {
		return d.PeakTensors[i].Bytes > d.PeakTensors[j].Bytes
	})
	return d
}

// tieGraph builds a graph of n tasks on a few streams with durations
// and gaps drawn from {0, 1, 2}ns, so many tasks start and finish at
// the same instant, and simulates it.
func tieGraph(t *testing.T, rng *rand.Rand, n int) (*core.Graph, *core.SimResult) {
	t.Helper()
	g := core.NewGraph()
	tasks := make([]*core.Task, n)
	for i := range tasks {
		tk := g.NewTask("k", trace.KindKernel, core.Stream(rng.Intn(3)), time.Duration(rng.Intn(3)))
		tk.Gap = time.Duration(rng.Intn(2))
		g.AppendTask(tk)
		if i > 0 && rng.Intn(3) == 0 {
			if err := g.AddDependency(tasks[rng.Intn(i)], tk, core.DepCustom); err != nil {
				t.Fatal(err)
			}
		}
		tasks[i] = tk
	}
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

// tieTensors draws tensors over the graph's tasks with sizes from a
// small set that includes zero, so equal Bytes and zero-byte tensors
// are common.
func tieTensors(rng *rand.Rand, n, count int) []Tensor {
	sizes := []int64{0, 0, 1, 2, 2, 8}
	out := make([]Tensor, count)
	for i := range out {
		tn := Tensor{Layer: "l", LayerIndex: i, Bytes: sizes[rng.Intn(len(sizes))], Producer: rng.Intn(n)}
		for c := tn.Producer + 1; c < n; c++ {
			if rng.Intn(n) < 3 {
				tn.Consumers = append(tn.Consumers, c)
			}
		}
		out[i] = tn
	}
	return out
}

func TestComputeProfileKeepsTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(40)
		g, res := tieGraph(t, rng, n)
		ann := &Annotation{Resident: int64(rng.Intn(3)), Tensors: tieTensors(rng, n, rng.Intn(30)), span: g.IDSpan()}
		prof, err := ComputeProfile(g, res, ann)
		if err != nil {
			t.Fatal(err)
		}
		got, want := prof.Device(DeviceGPU), referenceProfile(g, res, ann)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: profile differs from the reference sort order\n got %+v\nwant %+v", iter, got, want)
		}
	}
}

func TestComputeProfileNilPeakTensors(t *testing.T) {
	// One stream: a 1ns task, then zero-byte tensors produced later. The
	// peak is the resident load at 0, where no tensor is live.
	g := core.NewGraph()
	var ids []int
	for i := 0; i < 4; i++ {
		tk := g.NewTask("k", trace.KindKernel, core.Stream(0), 1)
		g.AppendTask(tk)
		ids = append(ids, tk.ID)
	}
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tensors := range [][]Tensor{
		nil,
		{{Bytes: 0, Producer: ids[1]}, {Bytes: 0, Producer: ids[2], Consumers: []int{ids[3]}}},
	} {
		ann := &Annotation{Resident: 5, Tensors: tensors, span: g.IDSpan()}
		prof, err := ComputeProfile(g, res, ann)
		if err != nil {
			t.Fatal(err)
		}
		d := prof.Device(DeviceGPU)
		if d.PeakTensors != nil {
			t.Fatalf("%d tensors: PeakTensors = %#v, want nil", len(tensors), d.PeakTensors)
		}
		if want := referenceProfile(g, res, ann); !reflect.DeepEqual(d, want) {
			t.Fatalf("%d tensors: profile %+v, reference %+v", len(tensors), d, want)
		}
	}
}
