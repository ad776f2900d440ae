package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			var hits [n]atomic.Int32
			if err := runIndexed(context.Background(), n, workers, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("index %d executed %d times", i, got)
				}
			}
		})
	}
}

func TestRunIndexedEmpty(t *testing.T) {
	if err := runIndexed(context.Background(), 0, 4, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunIndexedReturnsLowestIndexedError(t *testing.T) {
	// Sequentially the first failing index wins; the parallel pool must
	// report the same error even when a higher index fails first.
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := runIndexed(context.Background(), 50, workers, func(i int) error {
			if i == 7 || i == 30 {
				return fmt.Errorf("index %d: %w", i, wantErr)
			}
			return nil
		})
		if err == nil || !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: got %v, want wrapped boom", workers, err)
		}
		// With one worker, indices run in order and 7 always loses the
		// race to 30; with several workers 30 may be reported only if 7
		// was never issued, which the stop flag does not guarantee, so
		// we only check that *some* failing index is reported. The
		// deterministic sweeps rely on results, not error text.
	}
}

func TestRunIndexedStopsIssuingAfterError(t *testing.T) {
	var calls atomic.Int32
	err := runIndexed(context.Background(), 1_000_000, 2, func(i int) error {
		calls.Add(1)
		return errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := calls.Load(); n > 100 {
		t.Fatalf("pool kept issuing work after error: %d calls", n)
	}
}

func TestOptionsWorkers(t *testing.T) {
	if got := (Options{Parallelism: 3}).workers(); got != 3 {
		t.Fatalf("Parallelism=3: workers() = %d", got)
	}
	if got := (Options{}).workers(); got < 1 {
		t.Fatalf("default workers() = %d, want >= 1", got)
	}
}

// TestEachSpendsTheBudget checks that a pass at Parallelism 1 and Shards
// 2 runs two calls at once, each granted one shard: each call waits for
// the other, so a pass that ran them one at a time would time out.
func TestEachSpendsTheBudget(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	met := make(chan struct{})
	go func() { arrived.Wait(); close(met) }()
	err := Options{Parallelism: 1, Shards: 2}.each(2, func(i, shards int) error {
		if shards != 1 {
			return fmt.Errorf("call %d granted %d shards, want 1", i, shards)
		}
		arrived.Done()
		select {
		case <-met:
			return nil
		case <-time.After(30 * time.Second):
			return fmt.Errorf("call %d waited 30 s for the other", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchedule pins how a sweep spends its budget of Parallelism × Shards
// goroutines: whole cells first, then an even share of shards per cell,
// never more than the cell asked for, and none for a timing cell.
func TestSchedule(t *testing.T) {
	for _, tc := range []struct {
		parallelism, shards, jobs int
		width, perJob             int
	}{
		{1, 2, 55, 2, 1},  // a long sweep at -shards 2 runs two whole cells
		{2, 1, 55, 2, 1},  // -shards 1: the plain worker pool
		{1, 1, 5, 1, 1},   // sequential
		{1, 16, 5, 5, 3},  // a short sweep shards (Run rounds 3 to 2)
		{2, 2, 1, 1, 4},   // a lone cell gets the whole budget ...
		{3, 0, 2, 2, 1},   // Shards 0 budgets as 1
		{1, -5, 4, 1, 1},  // an invalid count budgets as 1; Run reports it
		{4, 4, 16, 16, 1}, // a sweep as wide as its budget
		{1, 4, 0, 0, 4},   // nothing to run
	} {
		o := Options{Parallelism: tc.parallelism, Shards: tc.shards}
		width, perJob := o.schedule(tc.jobs)
		if width != tc.width || perJob != tc.perJob {
			t.Errorf("P=%d S=%d jobs=%d: schedule = (%d, %d), want (%d, %d)",
				tc.parallelism, tc.shards, tc.jobs, width, perJob, tc.width, tc.perJob)
		}
	}

	for _, tc := range []struct {
		cfg    RunConfig
		perJob int
		want   int
	}{
		{RunConfig{Engine: EngineDirectory, Shards: 2}, 4, 2}, // ... but no more than it asked for
		{RunConfig{Engine: EngineDirectory, Shards: 8}, 2, 2},
		{RunConfig{Engine: EngineBus, Shards: 0}, 4, 1},
		{RunConfig{Engine: EngineDirectory, Shards: -1}, 1, 1},
		{RunConfig{Engine: EngineTiming, Shards: 2}, 4, 1},
		{RunConfig{Engine: EngineTiming, Shards: -1}, 4, 1},
		{RunConfig{Engine: EngineDirectory, Shards: -3}, 4, -3},
		{RunConfig{Engine: EngineTiming, Shards: -3}, 4, -3},
	} {
		if got := tc.cfg.poolShards(tc.perJob); got != tc.want {
			t.Errorf("%s Shards=%d granted %d: poolShards = %d, want %d",
				tc.cfg.Engine, tc.cfg.Shards, tc.perJob, got, tc.want)
		}
	}
	if got, want := (RunConfig{Engine: EngineDirectory, Shards: -1}).poolShards(1<<20), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Shards=-1 with a large grant: poolShards = %d, want GOMAXPROCS %d", got, want)
	}
}
