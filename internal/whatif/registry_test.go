package whatif_test

import (
	"strings"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

func TestRegistryNamesAndFootprints(t *testing.T) {
	want := map[string]core.OptFootprint{
		"amp":             core.TimingOnly,
		"fusedadam":       core.TimingOnly,
		"reconbn":         core.TimingOnly,
		"reconbn-removal": core.Structural,
		"vdnn":            core.Structural,
		"gist":            core.Structural,
		"distributed":     core.Structural,
		"p3":              core.Structural,
		"pipeline":        core.Structural,
		"upgrade":         core.TimingOnly,
		"kprofile":        core.TimingOnly,
		"scale":           core.TimingOnly,
	}
	specs := whatif.Registry()
	if len(specs) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(specs), len(want))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate registry name %q", s.Name)
		}
		seen[s.Name] = true
		fp, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected registry entry %q", s.Name)
		}
		if s.Footprint != fp {
			t.Fatalf("%s footprint = %v, want %v", s.Name, s.Footprint, fp)
		}
		if s.Summary == "" || s.Build == nil {
			t.Fatalf("registry entry %q missing summary or builder", s.Name)
		}
	}
	// Cluster marking drives the CLI's single-GPU battery.
	for _, name := range []string{"distributed", "p3"} {
		if s, _ := whatif.SpecByName(name); !s.Cluster {
			t.Fatalf("%s not marked Cluster", name)
		}
	}
}

func TestRegistryBuildValidation(t *testing.T) {
	topo := topo4x1(10)
	cases := []struct {
		name string
		p    whatif.OptParams
		ok   bool
	}{
		{"amp", whatif.OptParams{}, true},
		{"fusedadam", whatif.OptParams{}, true},
		{"reconbn", whatif.OptParams{}, true},
		{"vdnn", whatif.OptParams{}, true},
		{"distributed", whatif.OptParams{}, false},
		{"distributed", whatif.OptParams{Topology: topo}, true},
		{"p3", whatif.OptParams{}, false},
		{"p3", whatif.OptParams{Topology: topo}, true},
		{"upgrade", whatif.OptParams{}, false},
		{"upgrade", whatif.OptParams{FromDevice: "2080ti", ToDevice: "v100"}, true},
		{"upgrade", whatif.OptParams{FromDevice: "2080ti", ToDevice: "tpu"}, false},
		{"kprofile", whatif.OptParams{}, false},
		{"kprofile", whatif.OptParams{Profile: whatif.KernelProfile{"sgemm": time.Millisecond}}, true},
		{"scale", whatif.OptParams{}, false},
		{"scale", whatif.OptParams{ScaleTarget: "conv", ScaleFactor: 0.5}, true},
		{"scale", whatif.OptParams{ScaleTarget: "conv", ScaleFactor: -1}, false},
	}
	for _, tc := range cases {
		opt, err := whatif.BuildByName(tc.name, tc.p)
		if tc.ok && (err != nil || opt == nil) {
			t.Fatalf("%s with %+v: unexpected error %v", tc.name, tc.p, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("%s with %+v: expected a validation error", tc.name, tc.p)
		}
	}
	if _, err := whatif.BuildByName("bogus", whatif.OptParams{}); err == nil ||
		!strings.Contains(err.Error(), "amp") {
		t.Fatalf("unknown name error should list registry names, got %v", err)
	}
}

func TestParseStackExpressions(t *testing.T) {
	opt, err := whatif.ParseStack("amp", whatif.OptParams{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Name() != "amp" {
		t.Fatalf("single element name = %q", opt.Name())
	}

	stacked, err := whatif.ParseStack("amp+fusedadam", whatif.OptParams{})
	if err != nil {
		t.Fatal(err)
	}
	if stacked.Name() != "amp+fusedadam" {
		t.Fatalf("stack name = %q", stacked.Name())
	}
	if stacked.Footprint() != core.TimingOnly {
		t.Fatalf("amp+fusedadam footprint = %v", stacked.Footprint())
	}

	mixed, err := whatif.ParseStack("amp + distributed", whatif.OptParams{Topology: topo4x1(10)})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Footprint() != core.Structural {
		t.Fatalf("amp+distributed footprint = %v", mixed.Footprint())
	}

	for _, bad := range []string{"", "+", "amp+", "amp+bogus"} {
		if _, err := whatif.ParseStack(bad, whatif.OptParams{}); err == nil {
			t.Fatalf("expression %q did not error", bad)
		}
	}
}

// TestParseStackRejectsDuplicates pins the duplicate-name guard: a
// repeated element ("amp+amp") would silently apply the model twice,
// so ParseStack errors out with the duplicate's name instead.
func TestParseStackRejectsDuplicates(t *testing.T) {
	for _, expr := range []string{"amp+amp", "amp+fusedadam+amp", "fusedadam + fusedadam"} {
		_, err := whatif.ParseStack(expr, whatif.OptParams{})
		if err == nil {
			t.Fatalf("duplicate expression %q did not error", expr)
		}
		if !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("duplicate expression %q error %q does not name the problem", expr, err)
		}
	}
	// Distinct names still parse.
	if _, err := whatif.ParseStack("amp+fusedadam", whatif.OptParams{}); err != nil {
		t.Fatal(err)
	}
}

// TestParsedStackPredicts pins the registry end to end: a parsed
// amp+fusedadam stack predicts the same iteration as the sequential
// application (each part over the previous part's materialized graph)
// on a real profile.
func TestParsedStackPredicts(t *testing.T) {
	g := profile(t, "bert-base", framework.PyTorch)
	opt, err := whatif.ParseStack("amp+fusedadam", whatif.OptParams{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPatch(g)
	if err := opt.Apply(p); err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	c := applied(t, applied(t, g, whatif.OptAMP()), whatif.OptFusedAdam())
	want, err := c.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parsed stack predicts %v, sequential %v", got, want)
	}
}

// TestParseStackUnknownNameMessage pins the unknown-name rejection a
// remote API caller sees: the error must name the offending element,
// quote the whole expression, and list every valid registry name — the
// rejection is the caller's only documentation.
func TestParseStackUnknownNameMessage(t *testing.T) {
	_, err := whatif.ParseStack("amp+warpspeed", whatif.OptParams{})
	if err == nil {
		t.Fatal("unknown optimization did not error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"warpspeed"`) {
		t.Fatalf("error %q does not name the unknown optimization", msg)
	}
	if !strings.Contains(msg, `"amp+warpspeed"`) {
		t.Fatalf("error %q does not quote the expression", msg)
	}
	for _, spec := range whatif.Registry() {
		if !strings.Contains(msg, spec.Name) {
			t.Fatalf("error %q does not list registry name %q", msg, spec.Name)
		}
	}
}
