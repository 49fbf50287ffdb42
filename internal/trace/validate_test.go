package trace

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// validateBothWays runs validateActivities with the flat arrays allowed
// and with the maps forced, failing unless both give the same error.
func validateBothWays(t *testing.T, acts []Activity) error {
	t.Helper()
	dense := validateActivities(acts, true)
	maps := validateActivities(acts, false)
	if (dense == nil) != (maps == nil) || (dense != nil && dense.Error() != maps.Error()) {
		t.Fatalf("dense path says %v, map path %v", dense, maps)
	}
	return dense
}

// TestValidateDenseMatchesMapPath checks that the flat-array bookkeeping
// Validate uses on dense IDs and correlations gives the map path's
// answer: the same sentinel, message and precedence.
func TestValidateDenseMatchesMapPath(t *testing.T) {
	launch := func(id int, c uint64) Activity {
		return Activity{ID: id, Name: "launch", Kind: KindLaunch, Correlation: c}
	}
	kernel := func(id int, c uint64) Activity {
		return Activity{ID: id, Name: "kernel", Kind: KindKernel, Correlation: c}
	}
	huge := uint64(1) << 40
	cases := []struct {
		name      string
		acts      []Activity
		denseIDs  bool
		denseCorr bool
		want      error
		msg       string
	}{
		{"empty", nil, false, false, nil, ""},
		{"valid", []Activity{launch(0, 1), kernel(1, 1), launch(2, 2), kernel(3, 2)}, true, true, nil, ""},
		{"duplicate ID", []Activity{launch(0, 1), kernel(1, 1), {ID: 1}}, true, true,
			ErrDuplicateID, "trace: duplicate activity ID: activity ID 1"},
		{"negative IDs", []Activity{{ID: -5}, {ID: -3}, {ID: -5}}, true, true,
			ErrDuplicateID, "trace: duplicate activity ID: activity ID -5"},
		{"extreme IDs", []Activity{{ID: math.MinInt}, {ID: math.MaxInt}, {ID: math.MinInt}}, false, true,
			ErrDuplicateID, "trace: duplicate activity ID: activity ID -9223372036854775808"},
		{"IDs past 8n", []Activity{{ID: 0}, {ID: 1000}, {ID: 1000}}, false, true,
			ErrDuplicateID, "trace: duplicate activity ID: activity ID 1000"},
		{"two API records", []Activity{launch(0, 1), launch(1, 1), kernel(2, 1)}, true, true,
			ErrBadCorrelation, "trace: bad correlation: correlation 1 pairs 2 API records with 1 GPU records; want 1 and 1"},
		{"three GPU records", []Activity{kernel(0, 2), launch(1, 2), kernel(2, 2), kernel(3, 2)}, true, true,
			ErrBadCorrelation, "trace: bad correlation: correlation 2 pairs 1 API records with 3 GPU records; want 1 and 1"},
		{"GPU only", []Activity{kernel(0, 3)}, true, true,
			ErrBadCorrelation, "trace: bad correlation: correlation 3 pairs 0 API records with 1 GPU records; want 1 and 1"},
		{"API only", []Activity{launch(0, 4), {ID: 1}}, true, true,
			ErrBadCorrelation, "trace: bad correlation: correlation 4 pairs 1 API records with 0 GPU records; want 1 and 1"},
		{"huge correlation", []Activity{launch(0, huge), kernel(1, huge), launch(2, huge)}, true, false,
			ErrBadCorrelation, "trace: bad correlation: correlation 1099511627776 pairs 2 API records with 1 GPU records; want 1 and 1"},
		{"huge correlation paired", []Activity{launch(0, huge), kernel(1, huge)}, true, false, nil, ""},
		// The first bad API record's correlation wins over a GPU-only one
		// earlier in the slice, then slice order decides.
		{"API side first", []Activity{kernel(0, 7), launch(1, 9), kernel(2, 5), launch(3, 5), launch(4, 5)}, true, true,
			ErrBadCorrelation, "trace: bad correlation: correlation 9 pairs 1 API records with 0 GPU records; want 1 and 1"},
		{"GPU side in slice order", []Activity{launch(0, 1), kernel(1, 8), kernel(2, 1), kernel(3, 6)}, true, true,
			ErrBadCorrelation, "trace: bad correlation: correlation 8 pairs 0 API records with 1 GPU records; want 1 and 1"},
		// A per-record error anywhere beats any pairing error.
		{"negative time after bad pairing", []Activity{launch(0, 1), {ID: 1, Start: -1}}, true, true,
			ErrNegativeTime, "trace: negative time: activity 1 () has start -1ns, duration 0s"},
		{"comm correlation after bad pairing", []Activity{kernel(0, 1), {ID: 1, Name: "ar", Kind: KindComm, Correlation: 1}}, true, true,
			ErrBadCorrelation, "trace: bad correlation: activity 1 (ar) of kind comm carries a correlation ID"},
		{"overflow before duplicate ID", []Activity{{ID: 0}, {ID: 0, Start: math.MaxInt64, Duration: 1}}, true, true,
			ErrTimeOverflow, "trace: time overflow: activity 0 () ends past the time axis (start 2562047h47m16.854775807s + duration 1ns)"},
		{"duplicate ID before later overflow", []Activity{{ID: 0}, {ID: 0}, {ID: 1, Start: math.MaxInt64, Duration: 1}}, true, true,
			ErrDuplicateID, "trace: duplicate activity ID: activity ID 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var b recordBook
			b.init(c.acts, true)
			if (b.idBits != nil) != c.denseIDs || (b.tallies != nil) != c.denseCorr {
				t.Fatalf("dense IDs %v, dense correlations %v; want %v, %v", b.idBits != nil, b.tallies != nil, c.denseIDs, c.denseCorr)
			}
			err := validateBothWays(t, c.acts)
			if !errors.Is(err, c.want) || (err != nil && err.Error() != c.msg) {
				t.Fatalf("error %v, want %v (%q)", err, c.want, c.msg)
			}
		})
	}

	// Random small traces: few IDs and correlations, so duplicates and
	// uneven pairings are common.
	rng := rand.New(rand.NewSource(1))
	kinds := []Kind{KindLaunch, KindMemcpyAPI, KindKernel, KindMemcpy, KindComm, KindSync}
	for i := 0; i < 3000; i++ {
		acts := make([]Activity, rng.Intn(12))
		for j := range acts {
			acts[j] = Activity{ID: rng.Intn(2*len(acts)+1) - 2, Kind: kinds[rng.Intn(len(kinds))]}
			if rng.Intn(3) > 0 {
				acts[j].Correlation = uint64(rng.Intn(len(acts) + 1))
			}
			if rng.Intn(20) == 0 {
				acts[j].Start = -1
			}
		}
		validateBothWays(t, acts)
	}
}
