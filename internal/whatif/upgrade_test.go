package whatif_test

import (
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/whatif"
	"daydream/internal/xpu"
)

// TestDeviceUpgradePredictsMeasured validates the device-upgrade what-if
// against the engine: predict V100 performance from a 2080 Ti profile and
// compare with an actual V100 run.
func TestDeviceUpgradePredictsMeasured(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	base, err := framework.Run(framework.Config{Model: m, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(base.Trace)
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := applied(t, g, whatif.OptDeviceUpgrade(xpu.RTX2080Ti(), xpu.V100())).PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := framework.Run(framework.Config{Model: m, Device: xpu.V100()})
	if err != nil {
		t.Fatal(err)
	}
	rel := float64(predicted-gt.IterationTime) / float64(gt.IterationTime)
	if rel < -0.15 || rel > 0.15 {
		t.Fatalf("upgrade prediction %v vs measured %v (%.1f%%)", predicted, gt.IterationTime, 100*rel)
	}
}

func TestDeviceUpgradeDowngradeSlows(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	base := predict(t, g.Clone())
	if down := predict(t, applied(t, g, whatif.OptDeviceUpgrade(xpu.RTX2080Ti(), xpu.P4000()))); down <= base {
		t.Fatalf("downgrading to P4000 predicted faster (%v vs %v)", down, base)
	}
}

func TestDeviceUpgradeErrors(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	if err := whatif.OptDeviceUpgrade(nil, xpu.V100()).Apply(core.NewPatch(g)); err == nil {
		t.Error("nil source device accepted")
	}
	if err := whatif.OptDeviceUpgrade(&xpu.Device{}, xpu.V100()).Apply(core.NewPatch(g)); err == nil {
		t.Error("incomplete source device accepted")
	}
}

func TestApplyKernelProfile(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	fixed := 123 * time.Microsecond
	c := applied(t, g, whatif.OptKernelProfile(whatif.KernelProfile{"scudnn_winograd": fixed}))
	matched := c.Select(core.NameContains("scudnn_winograd"))
	if len(matched) == 0 {
		t.Fatal("no kernels matched")
	}
	for _, u := range matched {
		if u.Duration != fixed {
			t.Fatalf("kernel %v not updated", u)
		}
	}
}

func TestApplyKernelProfileSpecificity(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	short := 10 * time.Microsecond
	long := 99 * time.Microsecond
	g = applied(t, g, whatif.OptKernelProfile(whatif.KernelProfile{
		"scudnn":          short,
		"scudnn_winograd": long, // more specific: must win for winograd kernels
	}))
	for _, u := range g.Select(core.NameContains("scudnn_winograd")) {
		if u.Duration != long {
			t.Fatal("longer (more specific) key did not win")
		}
	}
	for _, u := range g.Select(core.NameContains("scudnn_128x128_dgrad")) {
		if u.Duration != short {
			t.Fatal("shorter key did not apply to non-winograd kernels")
		}
	}
}

func TestApplyKernelProfileEmpty(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	c := applied(t, g, whatif.OptKernelProfile(nil))
	for _, u := range c.Tasks() {
		if b := g.Task(u.ID); u.Duration != b.Duration {
			t.Fatalf("empty profile updated %v", u)
		}
	}
}

func TestScaleByName(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	base := predict(t, g.Clone())
	if len(g.LayerPhaseIndex().GPUTasksMatching("sgemm")) == 0 {
		t.Fatal("no GEMMs to scale")
	}
	if sped := predict(t, applied(t, g, whatif.OptScale("sgemm", 0.5))); sped >= base {
		t.Fatal("halving GEMMs predicted no gain")
	}
}
