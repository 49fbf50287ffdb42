package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/table1_ablation.golden from this tree")

// TestTable1AblationGolden pins every Table 1 and ablation row to its
// exact value in nanoseconds. The golden file was written from the tree
// before the Table 1 models moved to patch form, so a port that changes
// any prediction by a single nanosecond fails here. Regenerate with
// `go test ./internal/exp -run TestTable1AblationGolden -update` only
// for an intended change of prediction, and say so.
func TestTable1AblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("table1/ablation golden skipped in -short mode")
	}
	cov, err := RunTable1Coverage()
	if err != nil {
		t.Fatal(err)
	}
	abl, err := RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range cov {
		fmt.Fprintf(&b, "table1\t%s\t%s\t%d\t%d\n", r.Optimization, r.Model, r.Baseline, r.Predicted)
	}
	for _, r := range abl {
		fmt.Fprintf(&b, "ablation\t%s\t%s\t%d\t%d\n", r.Model, r.Variant, r.Traced, r.Simulated)
	}
	path := filepath.Join("testdata", "table1_ablation.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	lines := strings.Split(string(want), "\n")
	if len(got) != len(lines) {
		t.Fatalf("%d rows, golden has %d", len(got)-1, len(lines)-1)
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, got[i], lines[i])
		}
	}
}
