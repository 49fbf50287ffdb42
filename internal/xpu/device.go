package xpu

import (
	"fmt"
	"strings"
	"time"
)

// Precision is the numeric precision a kernel executes in.
type Precision int

// Supported precisions.
const (
	FP32 Precision = iota
	// FP16 is mixed precision as deployed by Apex AMP: fp16 storage and
	// tensor-core math where eligible, fp32 accumulation where required.
	FP16
)

// String returns "fp32" or "fp16".
func (p Precision) String() string {
	if p == FP16 {
		return "fp16"
	}
	return "fp32"
}

// Device is the analytic model of one accelerator.
type Device struct {
	// Name is the marketing name, used in trace metadata.
	Name string
	// FP32FLOPS is peak fp32 throughput in FLOP/s.
	FP32FLOPS float64
	// FP16FLOPS is peak tensor-core fp16 throughput in FLOP/s. Zero
	// means no tensor cores: fp16 math then runs at FP32FLOPS×2 (packed
	// half2 arithmetic at best).
	FP16FLOPS float64
	// MemBandwidth is DRAM bandwidth in bytes/s.
	MemBandwidth float64
	// KernelFloor is the minimum duration of any kernel (scheduling and
	// tail latency). Tiny kernels never run faster than this, which is
	// why launch-bound phases (BERT's unfused Adam) see no GPU speedup
	// from AMP.
	KernelFloor time.Duration
	// PCIeBandwidth is host↔device copy bandwidth in bytes/s.
	PCIeBandwidth float64
	// MemBytes is the device memory capacity.
	MemBytes int64
	// JitterAmp is the relative amplitude of deterministic duration
	// noise applied to every kernel.
	JitterAmp float64
}

// HasTensorCores reports whether the device accelerates fp16 GEMMs beyond
// packed-half fp32 rates.
func (d *Device) HasTensorCores() bool { return d.FP16FLOPS > 2.5*d.FP32FLOPS }

// Host models the CPU side of the CUDA runtime: the cost of the API calls
// CUPTI sees, and the framework dispatch overhead it does not (which
// Daydream recovers as inter-task "gaps").
type Host struct {
	// Name identifies the CPU.
	Name string
	// LaunchCall is the duration of one cudaLaunchKernel call.
	LaunchCall time.Duration
	// SyncCallBase is the CPU-side overhead of a synchronization call
	// beyond the time spent waiting for the device.
	SyncCallBase time.Duration
	// MemcpyCall is the CPU-side duration of cudaMemcpyAsync.
	MemcpyCall time.Duration
	// MallocCall is the duration of cudaMalloc/cudaFree.
	MallocCall time.Duration
	// DispatchGap is the un-instrumented framework time between
	// consecutive CUDA calls inside one operator (Python/C++ glue).
	DispatchGap time.Duration
	// OpGap is the un-instrumented framework time between operators.
	OpGap time.Duration
	// JitterAmp is the relative noise amplitude for host durations.
	JitterAmp float64
}

// RTX2080Ti returns the model of the paper's main evaluation GPU
// (11 GB GDDR6, Turing tensor cores).
func RTX2080Ti() *Device {
	return &Device{
		Name:          "GeForce RTX 2080 Ti",
		FP32FLOPS:     13.45e12,
		FP16FLOPS:     53.8e12,
		MemBandwidth:  616e9,
		KernelFloor:   1700 * time.Nanosecond,
		PCIeBandwidth: 12.0e9,
		MemBytes:      11 << 30,
		JitterAmp:     0.06,
	}
}

// P4000 returns the model of the Quadro P4000 used in the paper's P3
// experiments (Pascal, no tensor cores).
func P4000() *Device {
	return &Device{
		Name:          "Quadro P4000",
		FP32FLOPS:     5.3e12,
		FP16FLOPS:     0,
		MemBandwidth:  243e9,
		KernelFloor:   2000 * time.Nanosecond,
		PCIeBandwidth: 11.0e9,
		MemBytes:      8 << 30,
		JitterAmp:     0.06,
	}
}

// V100 returns a Volta V100 model, useful for what-if device upgrades.
func V100() *Device {
	return &Device{
		Name:          "Tesla V100-SXM2-16GB",
		FP32FLOPS:     15.7e12,
		FP16FLOPS:     125e12,
		MemBandwidth:  900e9,
		KernelFloor:   1600 * time.Nanosecond,
		PCIeBandwidth: 12.0e9,
		MemBytes:      16 << 30,
		JitterAmp:     0.06,
	}
}

// EPYC7601 returns the host model matching the paper's testbed (AMD EPYC
// 7601 16-core, modest single-thread performance) running a Python-fronted
// framework of the PyTorch-1.0 era: ~6.5 µs per cudaLaunchKernel and tens
// of microseconds of framework dispatch per operator.
func EPYC7601() *Host {
	return &Host{
		Name:         "AMD EPYC 7601",
		LaunchCall:   6500 * time.Nanosecond,
		SyncCallBase: 4000 * time.Nanosecond,
		MemcpyCall:   9000 * time.Nanosecond,
		MallocCall:   12000 * time.Nanosecond,
		DispatchGap:  6000 * time.Nanosecond,
		OpGap:        28000 * time.Nanosecond,
		JitterAmp:    0.10,
	}
}

// presets is the single table every device-name lookup reads: one short
// preset name per accelerator model. Adding a device here makes it
// visible to Devices, DeviceNames and FindDevice at once.
var presets = []struct {
	Short string
	Build func() *Device
}{
	{"2080ti", RTX2080Ti},
	{"p4000", P4000},
	{"v100", V100},
}

// Devices returns a fresh model of every preset accelerator, in preset
// order.
func Devices() []*Device {
	out := make([]*Device, len(presets))
	for i, p := range presets {
		out[i] = p.Build()
	}
	return out
}

// PresetNames returns the short preset names, in preset order.
func PresetNames() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.Short
	}
	return out
}

// DeviceNames returns every accepted device name: the short preset names
// followed by the full marketing names, in preset order.
func DeviceNames() []string {
	out := make([]string, 0, 2*len(presets))
	out = append(out, PresetNames()...)
	for _, p := range presets {
		out = append(out, p.Build().Name)
	}
	return out
}

// FindDevice resolves a short preset name or a full marketing name (the
// form trace metadata records). Unknown names error with the complete
// accepted-name list, so callers never maintain their own.
func FindDevice(name string) (*Device, error) {
	for _, p := range presets {
		if p.Short == name {
			return p.Build(), nil
		}
		if d := p.Build(); d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("xpu: unknown device %q (known: %s)", name, strings.Join(DeviceNames(), ", "))
}
