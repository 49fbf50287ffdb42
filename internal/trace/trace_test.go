package trace

import (
	"strings"
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
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
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindLocation(t *testing.T) {
	cpuKinds := []Kind{KindCPUOp, KindLaunch, KindMemcpyAPI, KindSync, KindMalloc, KindDataLoad}
	for _, k := range cpuKinds {
		if !k.OnCPU() || k.OnGPU() || k.OnChannel() {
			t.Errorf("%v: want CPU-only location", k)
		}
	}
	for _, k := range []Kind{KindKernel, KindMemcpy} {
		if !k.OnGPU() || k.OnCPU() || k.OnChannel() {
			t.Errorf("%v: want GPU-only location", k)
		}
	}
	if !KindComm.OnChannel() || KindComm.OnCPU() || KindComm.OnGPU() {
		t.Error("KindComm: want channel-only location")
	}
}

func TestMemcpyDirString(t *testing.T) {
	if MemcpyH2D.String() != "HtoD" || MemcpyD2H.String() != "DtoH" ||
		MemcpyD2D.String() != "DtoD" || MemcpyNone.String() != "none" {
		t.Error("MemcpyDir strings wrong")
	}
}

func TestPhaseString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" ||
		WeightUpdate.String() != "weight_update" {
		t.Error("Phase strings wrong")
	}
	if !strings.Contains(Phase(9).String(), "9") {
		t.Error("unknown phase should include its number")
	}
}

func TestActivityEnd(t *testing.T) {
	a := Activity{Start: 100, Duration: 50}
	if a.End() != 150 {
		t.Errorf("End = %v, want 150", a.End())
	}
}

func TestSortByStart(t *testing.T) {
	tr := &Trace{Activities: []Activity{
		{ID: 2, Start: 30},
		{ID: 0, Start: 10},
		{ID: 3, Start: 10}, // same start as ID 0: ID breaks the tie
		{ID: 1, Start: 20},
	}}
	tr.SortByStart()
	wantIDs := []int{0, 3, 1, 2}
	for i, want := range wantIDs {
		if tr.Activities[i].ID != want {
			t.Fatalf("position %d: ID %d, want %d", i, tr.Activities[i].ID, want)
		}
	}
}

func TestThreadAndStreamSets(t *testing.T) {
	tr := &Trace{Activities: []Activity{
		{ID: 0, Kind: KindLaunch, Thread: 3},
		{ID: 1, Kind: KindCPUOp, Thread: 1},
		{ID: 2, Kind: KindKernel, Stream: 7},
		{ID: 3, Kind: KindKernel, Stream: 9},
		{ID: 4, Kind: KindComm, Channel: "nccl"},
	}}
	if got := tr.CPUThreads(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("CPUThreads = %v, want [1 3]", got)
	}
	if got := tr.Streams(); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("Streams = %v, want [7 9]", got)
	}
}

func validTrace() *Trace {
	return &Trace{
		Model: "m", Activities: []Activity{
			{ID: 0, Name: "cudaLaunchKernel", Kind: KindLaunch, Thread: 1, Start: 0, Duration: 5, Correlation: 1},
			{ID: 1, Name: "k", Kind: KindKernel, Stream: 7, Start: 5, Duration: 10, Correlation: 1},
			{ID: 2, Name: "sync", Kind: KindSync, Thread: 1, Start: 5, Duration: 12},
		},
		LayerSpans: []LayerSpan{{Layer: "l0", Thread: 1, Start: 0, End: 5}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateNegativeTime(t *testing.T) {
	tr := validTrace()
	tr.Activities[0].Start = -1
	if err := tr.Validate(); err == nil {
		t.Fatal("negative start accepted")
	}
}

func TestValidateDuplicateID(t *testing.T) {
	tr := validTrace()
	tr.Activities[2].ID = 0
	if err := tr.Validate(); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestValidateDanglingCorrelation(t *testing.T) {
	tr := validTrace()
	tr.Activities[1].Correlation = 2 // API 1 now pairs with nothing
	if err := tr.Validate(); err == nil {
		t.Fatal("dangling correlation accepted")
	}
}

func TestValidateDoubleCorrelation(t *testing.T) {
	tr := validTrace()
	tr.Activities = append(tr.Activities, Activity{
		ID: 3, Name: "k2", Kind: KindKernel, Stream: 7, Correlation: 1,
	})
	if err := tr.Validate(); err == nil {
		t.Fatal("correlation paired with two GPU records accepted")
	}
}

func TestValidateCorrelationOnComm(t *testing.T) {
	tr := validTrace()
	tr.Activities = append(tr.Activities, Activity{
		ID: 3, Name: "allreduce", Kind: KindComm, Channel: "nccl", Correlation: 9,
	})
	if err := tr.Validate(); err == nil {
		t.Fatal("correlation on a comm record accepted")
	}
}

func TestValidateInvertedSpan(t *testing.T) {
	tr := validTrace()
	tr.LayerSpans[0].End = -5
	if err := tr.Validate(); err == nil {
		t.Fatal("inverted layer span accepted")
	}
}

func TestClone(t *testing.T) {
	tr := validTrace()
	tr.Gradients = []GradientInfo{{Layer: "l0", Bytes: 100, Bucket: -1}}
	c := tr.Clone()
	c.Activities[0].Name = "mutated"
	c.LayerSpans[0].Layer = "mutated"
	c.Gradients[0].Bytes = 1
	if tr.Activities[0].Name == "mutated" || tr.LayerSpans[0].Layer == "mutated" || tr.Gradients[0].Bytes == 1 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestLayerSpanFields(t *testing.T) {
	s := LayerSpan{Layer: "conv1", Phase: Backward, Start: 10 * time.Microsecond, End: 20 * time.Microsecond}
	if s.End-s.Start != 10*time.Microsecond {
		t.Fatal("span arithmetic broken")
	}
}
