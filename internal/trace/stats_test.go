package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestUnionLengthBasics(t *testing.T) {
	if got := UnionLength(nil); got != 0 {
		t.Errorf("empty union = %v", got)
	}
	disjoint := []Interval{{0, 10}, {20, 30}}
	if got := UnionLength(disjoint); got != 20 {
		t.Errorf("disjoint union = %v, want 20", got)
	}
	overlapping := []Interval{{0, 10}, {5, 15}}
	if got := UnionLength(overlapping); got != 15 {
		t.Errorf("overlapping union = %v, want 15", got)
	}
	nested := []Interval{{0, 100}, {10, 20}, {30, 40}}
	if got := UnionLength(nested); got != 100 {
		t.Errorf("nested union = %v, want 100", got)
	}
	touching := []Interval{{0, 10}, {10, 20}}
	if got := UnionLength(touching); got != 20 {
		t.Errorf("touching union = %v, want 20", got)
	}
}

func TestUnionLengthDoesNotMutateInput(t *testing.T) {
	in := []Interval{{20, 30}, {0, 10}}
	UnionLength(in)
	if in[0].Start != 20 {
		t.Fatal("UnionLength sorted the caller's slice")
	}
}

// TestUnionLengthProperties checks, on random interval sets, that the
// union length never exceeds the summed lengths and never undercuts the
// longest single interval.
func TestUnionLengthProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%20) + 1
		ivs := make([]Interval, k)
		var sum, longest time.Duration
		for i := range ivs {
			start := time.Duration(rng.Intn(1000))
			length := time.Duration(rng.Intn(100))
			ivs[i] = Interval{start, start + length}
			sum += length
			if length > longest {
				longest = length
			}
		}
		u := UnionLength(ivs)
		return u <= sum && u >= longest
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeBreakdown(t *testing.T) {
	// One kernel [0,100); the CPU waits in a sync covering [40,100);
	// iteration is 120 long.
	tr := &Trace{
		IterationTime: 120,
		Activities: []Activity{
			{ID: 0, Kind: KindKernel, Stream: 7, Start: 0, Duration: 100},
			{ID: 1, Kind: KindSync, Thread: 1, Start: 40, Duration: 60},
		},
	}
	b := ComputeBreakdown(tr)
	if b.GPUOnly != 60 {
		t.Errorf("GPUOnly = %v, want 60", b.GPUOnly)
	}
	if b.CPUOnly != 20 { // 120 total − 100 GPU busy
		t.Errorf("CPUOnly = %v, want 20", b.CPUOnly)
	}
	if b.Parallel != 40 { // 100 busy − 60 waiting
		t.Errorf("Parallel = %v, want 40", b.Parallel)
	}
	if b.Total() != 120 {
		t.Errorf("Total = %v, want 120", b.Total())
	}
}

func TestComputeBreakdownBlockingD2H(t *testing.T) {
	tr := &Trace{
		IterationTime: 100,
		Activities: []Activity{
			{ID: 0, Kind: KindKernel, Stream: 7, Start: 0, Duration: 80},
			{ID: 1, Kind: KindMemcpyAPI, Thread: 1, Start: 10, Duration: 75, Dir: MemcpyD2H},
			{ID: 2, Kind: KindMemcpyAPI, Thread: 1, Start: 90, Duration: 5, Dir: MemcpyH2D},
		},
	}
	b := ComputeBreakdown(tr)
	// Only the D2H call counts as waiting, clamped to GPU-busy time.
	if b.GPUOnly != 75 {
		t.Errorf("GPUOnly = %v, want 75", b.GPUOnly)
	}
}

func TestComputeBreakdownFallsBackToSpan(t *testing.T) {
	tr := &Trace{Activities: []Activity{
		{ID: 0, Kind: KindKernel, Stream: 7, Start: 0, Duration: 50},
		{ID: 1, Kind: KindLaunch, Thread: 1, Start: 50, Duration: 25},
	}}
	b := ComputeBreakdown(tr)
	if b.Total() != 75 {
		t.Errorf("breakdown total without IterationTime = %v, want span 75", b.Total())
	}
}

func TestComputeStats(t *testing.T) {
	tr := validTrace()
	st := ComputeStats(tr)
	if st.Count[KindKernel] != 1 || st.Count[KindLaunch] != 1 || st.Count[KindSync] != 1 {
		t.Errorf("counts = %v", st.Count)
	}
	if st.GPUBusy != 10 {
		t.Errorf("GPUBusy = %v, want 10", st.GPUBusy)
	}
	if st.CPUBusy != 17 { // launch [0,5) + sync [5,17)
		t.Errorf("CPUBusy = %v, want 17", st.CPUBusy)
	}
	if st.Span != 17 {
		t.Errorf("Span = %v, want 17", st.Span)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := ComputeStats(&Trace{})
	if st.Span != 0 || st.CPUBusy != 0 || st.GPUBusy != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}
