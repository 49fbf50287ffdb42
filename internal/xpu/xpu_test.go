package xpu

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestJitterBoundsAndDeterminism(t *testing.T) {
	f := func(salt uint64, ampSeed uint8) bool {
		amp := float64(ampSeed%20) / 100 // 0 .. 0.19
		j1 := Jitter("kernel_x", salt, amp)
		j2 := Jitter("kernel_x", salt, amp)
		if j1 != j2 {
			return false // must be a pure function
		}
		return j1 >= 1-amp-1e-12 && j1 <= 1+amp+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterZeroAmp(t *testing.T) {
	if Jitter("x", 42, 0) != 1 {
		t.Fatal("zero-amplitude jitter must be exactly 1")
	}
}

func TestJitterVariesWithSalt(t *testing.T) {
	a := Jitter("x", 1, 0.1)
	b := Jitter("x", 2, 0.1)
	if a == b {
		t.Fatal("different salts produced identical jitter (astronomically unlikely)")
	}
}

func TestJitterVariesWithName(t *testing.T) {
	if Jitter("a", 7, 0.1) == Jitter("b", 7, 0.1) {
		t.Fatal("different names produced identical jitter")
	}
}

func TestRoundUp(t *testing.T) {
	if got := roundUp(1.01e-6, 1e-7); got < 1.05e-6 || got > 1.15e-6 {
		t.Errorf("roundUp(1.01µs, 100ns) = %v, want 1.1µs", got)
	}
	if got := roundUp(5, 0); got != 5 {
		t.Errorf("roundUp with zero resolution = %v, want identity", got)
	}
}

func TestSplitmixDistribution(t *testing.T) {
	// Not a statistical test — just that consecutive seeds don't
	// collide and unitNoise stays in [0,1).
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := splitmix64(i)
		if seen[h] {
			t.Fatalf("splitmix64 collision at %d", i)
		}
		seen[h] = true
		if u := unitNoise(i); u < 0 || u >= 1 {
			t.Fatalf("unitNoise(%d) = %v out of [0,1)", i, u)
		}
	}
}

func TestKernelCostFP16FasterForTensorCoreGEMM(t *testing.T) {
	d := RTX2080Ti()
	k := &Kernel{Class: ClassGEMM, FLOPs: 20e9, Bytes: 50e6, TensorCore: true}
	fp32 := d.KernelCost(k, FP32, 1)
	fp16 := d.KernelCost(k, FP16, 1)
	ratio := float64(fp32) / float64(fp16)
	if ratio < 2.2 || ratio > 3.5 {
		t.Errorf("large tensor-core GEMM fp32/fp16 = %.2f, want ≈3", ratio)
	}
}

func TestKernelCostSmallGEMMBenefitsLess(t *testing.T) {
	d := RTX2080Ti()
	small := &Kernel{Class: ClassGEMM, FLOPs: 0.3e9, Bytes: 5e6, TensorCore: true}
	big := &Kernel{Class: ClassGEMM, FLOPs: 30e9, Bytes: 50e6, TensorCore: true}
	smallRatio := float64(d.KernelCost(small, FP32, 1)) / float64(d.KernelCost(small, FP16, 1))
	bigRatio := float64(d.KernelCost(big, FP32, 1)) / float64(d.KernelCost(big, FP16, 1))
	if smallRatio >= bigRatio {
		t.Errorf("small GEMM speedup %.2f should be below big GEMM speedup %.2f", smallRatio, bigRatio)
	}
}

func TestKernelCostMemoryBoundHalves(t *testing.T) {
	d := RTX2080Ti()
	k := &Kernel{Class: ClassElementwise, Bytes: 200e6}
	ratio := float64(d.KernelCost(k, FP32, 1)) / float64(d.KernelCost(k, FP16, 1))
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("elementwise fp32/fp16 = %.2f, want ≈2", ratio)
	}
}

func TestKernelCostFP32AccumSavesLess(t *testing.T) {
	d := RTX2080Ti()
	sm := &Kernel{Class: ClassSoftmax, Bytes: 200e6}
	ratio := float64(d.KernelCost(sm, FP32, 1)) / float64(d.KernelCost(sm, FP16, 1))
	if ratio >= 2.0 {
		t.Errorf("softmax (fp32 accumulation) speedup %.2f should be < 2", ratio)
	}
}

func TestKernelCostFloor(t *testing.T) {
	d := RTX2080Ti()
	tiny := &Kernel{Class: ClassElementwise, Bytes: 16}
	if got := d.KernelCost(tiny, FP32, 1); got != d.KernelFloor {
		t.Errorf("tiny kernel cost %v, want floor %v", got, d.KernelFloor)
	}
}

func TestKernelCostMonotonicInBytes(t *testing.T) {
	d := RTX2080Ti()
	f := func(seed uint32) bool {
		b := float64(seed%1000+1) * 1e6
		k1 := &Kernel{Class: ClassElementwise, Bytes: b}
		k2 := &Kernel{Class: ClassElementwise, Bytes: 4 * b}
		// Same salt ⇒ same jitter for the same name ⇒ strict scaling.
		return d.KernelCost(k2, FP32, uint64(seed)) > d.KernelCost(k1, FP32, uint64(seed))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKernelCostNoTensorCoresOnP4000(t *testing.T) {
	d := P4000()
	k := &Kernel{Class: ClassGEMM, FLOPs: 20e9, Bytes: 50e6, TensorCore: true}
	ratio := float64(d.KernelCost(k, FP32, 1)) / float64(d.KernelCost(k, FP16, 1))
	if ratio > 1.9 {
		t.Errorf("P4000 (no tensor cores) GEMM speedup %.2f should stay below packed-half 2x", ratio)
	}
}

func TestMemcpyCost(t *testing.T) {
	d := RTX2080Ti()
	small := d.MemcpyCost(1<<10, 1)
	big := d.MemcpyCost(100<<20, 1)
	if big <= small {
		t.Error("memcpy cost must grow with size")
	}
	// 100 MB over ~12 GB/s ≈ 8.3 ms.
	if big < 6*time.Millisecond || big > 11*time.Millisecond {
		t.Errorf("100MB copy = %v, want ≈8ms", big)
	}
}

func TestHostCallJitterBounds(t *testing.T) {
	h := EPYC7601()
	base := 10 * time.Microsecond
	for salt := uint64(0); salt < 50; salt++ {
		got := h.HostCall(base, "call", salt)
		lo := time.Duration(float64(base) * (1 - h.JitterAmp - 0.01))
		hi := time.Duration(float64(base) * (1 + h.JitterAmp + 0.01))
		if got < lo || got > hi {
			t.Fatalf("HostCall = %v outside [%v, %v]", got, lo, hi)
		}
	}
}

func TestDevicePresets(t *testing.T) {
	if !RTX2080Ti().HasTensorCores() {
		t.Error("2080 Ti should have tensor cores")
	}
	if P4000().HasTensorCores() {
		t.Error("P4000 should not have tensor cores")
	}
	if !V100().HasTensorCores() {
		t.Error("V100 should have tensor cores")
	}
	for _, name := range []string{"2080ti", "p4000", "v100"} {
		if _, err := FindDevice(name); err != nil {
			t.Errorf("FindDevice(%q): %v", name, err)
		}
	}
	if _, err := FindDevice("tpu"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestPrecisionString(t *testing.T) {
	if FP32.String() != "fp32" || FP16.String() != "fp16" {
		t.Error("precision strings wrong")
	}
}

func TestEffectiveName(t *testing.T) {
	k := &Kernel{Class: ClassGEMM}
	if got := k.EffectiveName(); got != "volta_sgemm_128x64_nn" {
		t.Errorf("GEMM conventional name = %q", got)
	}
	k.Name = "custom"
	if k.EffectiveName() != "custom" {
		t.Error("explicit name not honored")
	}
	unknown := &Kernel{Class: Class(99)}
	if unknown.EffectiveName() == "" {
		t.Error("unknown class must still synthesize a name")
	}
}

func TestSaturate(t *testing.T) {
	if saturate(0, 1e9) != 0 {
		t.Error("saturate(0) != 0")
	}
	if s := saturate(1e9, 1e9); s != 0.5 {
		t.Errorf("saturate at knee = %v, want 0.5", s)
	}
	if s := saturate(1e15, 1e9); s < 0.999 {
		t.Errorf("saturate far past knee = %v, want →1", s)
	}
}

func TestClassProperties(t *testing.T) {
	if !ClassGEMM.computeBound() || !ClassConv.computeBound() {
		t.Error("GEMM/Conv must be compute-bound")
	}
	if ClassElementwise.computeBound() {
		t.Error("elementwise must not be compute-bound")
	}
	for _, c := range []Class{ClassSoftmax, ClassReduce, ClassLayerNorm, ClassBatchNorm} {
		if !c.fp32Accum() {
			t.Errorf("%d should keep fp32 accumulators", int(c))
		}
	}
	if ClassElementwise.fp32Accum() {
		t.Error("elementwise should not keep fp32 accumulators")
	}
}

func TestDevicePresetTable(t *testing.T) {
	devs := Devices()
	if len(devs) != 3 {
		t.Fatalf("Devices() = %d entries", len(devs))
	}
	names := DeviceNames()
	if len(names) != 2*len(devs) {
		t.Fatalf("DeviceNames() = %v", names)
	}
	// Every preset short name and every marketing name resolves, and
	// both spellings agree.
	for i, short := range PresetNames() {
		byShort, err := FindDevice(short)
		if err != nil {
			t.Fatalf("preset %q does not resolve: %v", short, err)
		}
		if byShort.Name != devs[i].Name {
			t.Fatalf("preset %q resolves to %q, Devices()[%d] is %q",
				short, byShort.Name, i, devs[i].Name)
		}
		byFull, err := FindDevice(byShort.Name)
		if err != nil || byFull.Name != byShort.Name {
			t.Fatalf("FindDevice(%q) = %v, %v", byShort.Name, byFull, err)
		}
	}
	// Devices() hands out fresh models: mutating one does not poison
	// later lookups.
	devs[0].MemBytes = 1
	if d, _ := FindDevice("2080ti"); d.MemBytes == 1 {
		t.Fatal("Devices() shares state with the preset table")
	}
}

func TestFindDeviceErrorListsAllNames(t *testing.T) {
	_, err := FindDevice("tpu")
	if err == nil {
		t.Fatal("unknown device accepted")
	}
	for _, name := range DeviceNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list known name %q", err, name)
		}
	}
}
