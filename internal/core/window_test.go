package core

import (
	"errors"
	"testing"
	"time"

	"daydream/internal/dnn"
	"daydream/internal/trace"
)

// checkWindowMatchesFull simulates the view windowed and unwindowed and
// asserts the windowed run is bit-identical on everything it retains:
// makespan, thread ends, retained-window starts/finishes, and retired
// rounds' summaries against the full result's RoundSpan.
func checkWindowMatchesFull(t *testing.T, v TaskView, rounds, window int, opts ...SimOption) {
	t.Helper()
	full, err := simulateView(v, opts...)
	if err != nil {
		t.Fatal(err)
	}
	win, err := simulateView(v, append([]SimOption{WithRoundWindow(window)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !win.Windowed() || win.WindowOccupancy() == 0 {
		t.Fatalf("windowed run not marked windowed (windowed=%v occupancy=%d)", win.Windowed(), win.WindowOccupancy())
	}
	if len(win.Start) != 0 {
		t.Fatalf("windowed result retains a %d-entry Start array", len(win.Start))
	}
	if win.Makespan != full.Makespan {
		t.Fatalf("windowed makespan %v != full %v", win.Makespan, full.Makespan)
	}
	if len(win.ThreadEnd) != len(full.ThreadEnd) {
		t.Fatalf("thread-end cardinality %d != %d", len(win.ThreadEnd), len(full.ThreadEnd))
	}
	for tid, end := range full.ThreadEnd {
		if win.ThreadEnd[tid] != end {
			t.Fatalf("thread %v end %v != full %v", tid, win.ThreadEnd[tid], end)
		}
	}
	retired := win.RetiredRounds()
	if want := rounds - window; retired != want {
		t.Fatalf("retired %d rounds, want %d", retired, want)
	}
	sums := win.Summaries()
	if len(sums) != retired {
		t.Fatalf("%d summaries for %d retired rounds", len(sums), retired)
	}
	var prevEnd time.Duration
	for r, s := range sums {
		if s.Round != r {
			t.Fatalf("summary %d claims round %d", r, s.Round)
		}
		wantEnd := RoundSpan(v, full, r)
		if s.End != wantEnd {
			t.Fatalf("round %d summary end %v != full round span %v", r, s.End, wantEnd)
		}
		if s.Span != s.End-prevEnd {
			t.Fatalf("round %d span %v != end delta %v", r, s.Span, s.End-prevEnd)
		}
		if RoundSpan(v, win, r) != wantEnd {
			t.Fatalf("windowed RoundSpan(%d) = %v, want %v", r, RoundSpan(v, win, r), wantEnd)
		}
		prevEnd = s.End
	}
	checked := 0
	for _, task := range v.Tasks() {
		start, ok := win.StartOf(task)
		if task.Round < retired {
			if ok {
				t.Fatalf("task #%d of retired round %d still readable", task.ID, task.Round)
			}
			continue
		}
		if !ok {
			t.Fatalf("task #%d of retained round %d not readable", task.ID, task.Round)
		}
		if start != full.Start[task.ID] {
			t.Fatalf("task #%d start %v != full %v", task.ID, start, full.Start[task.ID])
		}
		if win.Finish(task) != full.Finish(task) {
			t.Fatalf("task #%d finish %v != full %v", task.ID, win.Finish(task), full.Finish(task))
		}
		if win.TaskDuration(task) != full.TaskDuration(task) {
			t.Fatalf("task #%d duration %v != full %v", task.ID, win.TaskDuration(task), full.TaskDuration(task))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no retained tasks checked")
	}
}

// simulateView dispatches Simulate across the view types.
func simulateView(v TaskView, opts ...SimOption) (*SimResult, error) {
	switch view := v.(type) {
	case *Graph:
		return view.Simulate(opts...)
	case *Patch:
		return view.Simulate(opts...)
	}
	panic("unknown view type")
}

// TestWindowedMatchesFullOnZoo is the zoo-wide bit-equivalence suite:
// on every model's repeated graph, a windowed simulation must match the
// unwindowed one on the retained window and summarize the retired
// rounds exactly — through the Graph heap path, a timing-only Patch,
// and an edited structural Patch.
func TestWindowedMatchesFullOnZoo(t *testing.T) {
	const rounds, window = 6, 2
	for _, name := range dnn.Names() {
		t.Run(name, func(t *testing.T) {
			g := modelGraph(t, name)
			rg, err := g.Repeat(rounds)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("graph", func(t *testing.T) {
				checkWindowMatchesFull(t, rg, rounds, window)
			})
			t.Run("overlay", func(t *testing.T) {
				ov := NewPatch(rg)
				for i, task := range rg.Tasks() {
					if i%7 == 0 {
						ov.SetDuration(task, task.Duration*2)
					}
					if i%11 == 0 {
						ov.SetGap(task, task.Gap+time.Microsecond)
					}
				}
				checkWindowMatchesFull(t, ov, rounds, window)
			})
			t.Run("patch", func(t *testing.T) {
				p := NewPatch(rg)
				for i, task := range rg.Tasks() {
					if i%5 == 0 {
						p.SetDuration(task, task.Duration/2)
					}
				}
				// A round-major structural delta: one extra task in the
				// last round, downstream of the graph's final GPU task.
				var last *Task
				for _, task := range rg.Tasks() {
					if task.OnGPU() {
						last = task
					}
				}
				nt := p.NewTask("window_probe", trace.KindKernel, last.Thread, 42*time.Microsecond)
				nt.Round = rounds - 1
				if err := p.AddDependency(last, nt, DepCustom); err != nil {
					t.Fatal(err)
				}
				checkWindowMatchesFull(t, p, rounds, window)
			})
		})
	}
}

// TestWindowedScheduledMatchesFull pins the windowed path through
// simulateScheduled: a carried scheduler and a round window compose.
func TestWindowedScheduledMatchesFull(t *testing.T) {
	const rounds, window = 5, 2
	g := modelGraph(t, "resnet50")
	rg, err := g.Repeat(rounds)
	if err != nil {
		t.Fatal(err)
	}
	checkWindowMatchesFull(t, rg, rounds, window, WithScheduler(EarliestStart{}))
}

// TestWindowRejectsNonRoundMajor pins the layout contract: IDs
// decreasing in Round fail fast with ErrNotRoundMajor.
func TestWindowRejectsNonRoundMajor(t *testing.T) {
	g := NewGraph()
	a := g.NewTask("a", trace.KindKernel, Stream(0), time.Millisecond)
	a.Round = 1
	g.AppendTask(a)
	b := g.NewTask("b", trace.KindKernel, Stream(0), time.Millisecond)
	b.Round = 0
	g.AppendTask(b)
	if _, err := g.Simulate(WithRoundWindow(1)); !errors.Is(err, ErrNotRoundMajor) {
		t.Fatalf("got %v, want ErrNotRoundMajor", err)
	}
}

// TestWindowedRepeatMemoryFootprint is the O(window) assertion: a
// 1000-round repetition of a round-coupled iteration (each round's
// producer waits for the previous round's consumer, the shape a
// launch→kernel→sync loop or a pipeline's microbatch flow has) must
// retain a per-task span sized by the window, not the graph.
func TestWindowedRepeatMemoryFootprint(t *testing.T) {
	const rounds, window = 1000, 4
	g := NewGraph()
	launch := g.NewTask("launch", trace.KindKernel, Stream(1), time.Millisecond)
	g.AppendTask(launch)
	kernel := g.NewTask("kernel", trace.KindKernel, Stream(2), time.Millisecond)
	g.AppendTask(kernel)
	sync := g.NewTask("sync", trace.KindKernel, Stream(1), time.Millisecond)
	g.AppendTask(sync)
	if err := g.AddDependency(launch, kernel, DepCustom); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDependency(kernel, sync, DepCustom); err != nil {
		t.Fatal(err)
	}
	rg, err := g.Repeat(rounds)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rg.Tasks())
	res, err := rg.Simulate(WithRoundWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	if res.RetiredRounds() != rounds-window {
		t.Fatalf("retired %d rounds, want %d", res.RetiredRounds(), rounds-window)
	}
	perRound := n / rounds
	budget := (window + 3) * 2 * perRound // generous 2× slack over w+2 rounds
	if occ := res.WindowOccupancy(); occ > budget {
		t.Fatalf("window occupancy %d tasks exceeds O(window) budget %d (graph has %d tasks)", occ, budget, n)
	}
	if got := len(res.win.ring); got > budget {
		t.Fatalf("start ring holds %d slots, want <= %d (graph has %d tasks)", got, budget, n)
	}
	if len(res.Start) != 0 {
		t.Fatalf("windowed result retains full Start array (%d entries)", len(res.Start))
	}
}

// TestWindowedRetiredReadPanics pins the fail-fast contract for
// per-task reads of retired rounds.
func TestWindowedRetiredReadPanics(t *testing.T) {
	g := modelGraph(t, "vgg19")
	rg, err := g.Repeat(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rg.Simulate(WithRoundWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	var victim *Task
	for _, task := range rg.Tasks() {
		if task.Round == 0 {
			victim = task
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Finish on a retired round did not panic")
		}
	}()
	_ = res.Finish(victim)
}
