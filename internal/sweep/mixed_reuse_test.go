package sweep

import (
	"fmt"
	"testing"
	"time"
)

// TestSweepWorkerMixedScenarioReuse drives one worker through an
// interleaving of structural-patch, timing-patch, repeated-baseline and
// replay scenarios, checking buffer/patch reuse never leaks state between
// paths.
func TestSweepWorkerMixedScenarioReuse(t *testing.T) {
	g := testGraph(30)
	var scenarios []Scenario
	for i := 0; i < 6; i++ {
		scenarios = append(scenarios,
			Scenario{Name: fmt.Sprintf("struct%d", i), Opt: insertCommOpt(time.Duration(i+1) * time.Millisecond)},
			Scenario{Name: fmt.Sprintf("timing%d", i), Opt: gpuScaleOpt(0.5 + 0.05*float64(i))},
			Scenario{Name: fmt.Sprintf("replay%d", i)},
			Scenario{Name: fmt.Sprintf("rounds%d", i), Opt: roundsOpt{insertCommOpt(time.Duration(i+1) * time.Millisecond), 2}},
		)
	}
	want, err := Run(g, scenarios, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	// Every scenario independently, fresh worker each.
	for i := range scenarios {
		got, err := Run(g, scenarios[i:i+1], Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Value != want[0+i].Value {
			t.Fatalf("scenario %d (%s): reused worker %v, fresh worker %v", i, want[i].Name, want[i].Value, got[0].Value)
		}
	}
}
