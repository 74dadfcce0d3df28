package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineFence snapshots the goroutine count and returns a check that
// fails the test if the count has not returned to (near) the snapshot —
// the leak detector for cancellation paths. A small tolerance absorbs
// runtime-internal goroutines that come and go.
func goroutineFence(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestRunCanceledContextStopsRun(t *testing.T) {
	check := goroutineFence(t)
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("operator interrupt")
	cancel(cause)

	_, err := Run(ctx, upTo(100,
		func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{func(_ context.Context, x int) (int, error) { return x, nil }},
		func(i, o int) error { return nil }, Policy{}, nil)
	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("Run under canceled ctx returned %v, want cause %v", err, cause)
	}
	check()
}

func TestRunResilientCancelMidRunIsLeakFreeAndKeepsWrites(t *testing.T) {
	check := goroutineFence(t)
	const n = 50
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cause := errors.New("user hit ^C")

	// The worker blocks on its context after a few partitions, simulating a
	// long-running kernel; cancellation must release it and return.
	var done atomic.Int64
	worker := func(wctx context.Context, x int) (int, error) {
		if done.Add(1) > 5 {
			<-wctx.Done()
			return 0, wctx.Err()
		}
		return x, nil
	}
	var written atomic.Int64
	go func() {
		for written.Load() < 3 {
			time.Sleep(time.Millisecond)
		}
		cancel(cause)
	}()

	rep, err := Run(ctx, upTo(n,
		func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{worker, worker},
		func(i, o int) error { written.Add(1); return nil },
		Policy{MaxAttempts: 3}, nil)

	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want wrapped cause %v", err, cause)
	}
	if !rep.Canceled {
		t.Fatal("Report.Canceled = false after context cancellation")
	}
	committed := 0
	for _, w := range rep.Written {
		if w {
			committed++
		}
	}
	if committed < 3 {
		t.Fatalf("only %d partitions marked Written, want >= 3 committed before cancel", committed)
	}
	if committed == n {
		t.Fatal("all partitions written; cancellation did not cut the run short")
	}
	check()
}

func TestRunResilientWatchdogKillsHungAttempt(t *testing.T) {
	check := goroutineFence(t)
	const n = 8
	// Worker 0 hangs forever on its first claim (cooperatively: it blocks on
	// the attempt context, which the watchdog cancels); worker 1 is healthy.
	var hung atomic.Bool
	hang := func(wctx context.Context, x int) (int, error) {
		if hung.CompareAndSwap(false, true) {
			<-wctx.Done()
			return 0, wctx.Err()
		}
		return x, nil
	}
	ok := func(_ context.Context, x int) (int, error) { return x, nil }

	rep, err := Run(context.Background(), upTo(n,
		func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{hang, ok},
		func(i, o int) error { return nil },
		Policy{MaxAttempts: 3, AttemptTimeout: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.WatchdogKills < 1 {
		t.Fatalf("WatchdogKills = %d, want >= 1", rep.WatchdogKills)
	}
	if rep.Retries < 1 {
		t.Fatalf("Retries = %d, want the killed attempt retried", rep.Retries)
	}
	for i, w := range rep.Written {
		if !w {
			t.Fatalf("partition %d not written after watchdog recovery", i)
		}
	}
	var found bool
	for _, f := range rep.Faults {
		if errors.Is(f.Err, ErrAttemptTimeout) {
			found = true
		}
	}
	if !found {
		t.Fatal("no fault wraps ErrAttemptTimeout")
	}
	check()
}

func TestRunResilientWatchdogQuarantinesRepeatOffender(t *testing.T) {
	check := goroutineFence(t)
	const n = 12
	// Worker 0 hangs on every claim; with QuarantineAfter=2 the watchdog's
	// kills must retire it and the run must finish on worker 1 alone.
	hang := func(wctx context.Context, x int) (int, error) {
		<-wctx.Done()
		return 0, wctx.Err()
	}
	// Worker 1 is busy for a moment on each slot, so while it works the
	// idle worker 0 claims queued slots too and reaches the threshold;
	// an instant worker 1 could win every claim after worker 0's first
	// kill and finish the run with worker 0 still in service.
	ok := func(_ context.Context, x int) (int, error) {
		time.Sleep(2 * time.Millisecond)
		return x, nil
	}

	rep, err := Run(context.Background(), upTo(n,
		func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{hang, ok},
		func(i, o int) error { return nil },
		Policy{MaxAttempts: 5, QuarantineAfter: 2, AttemptTimeout: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 0 {
		t.Fatalf("Quarantined = %v, want [0]", rep.Quarantined)
	}
	if rep.WatchdogKills < 2 {
		t.Fatalf("WatchdogKills = %d, want >= 2 (the quarantine threshold)", rep.WatchdogKills)
	}
	for i, w := range rep.Written {
		if !w {
			t.Fatalf("partition %d not written", i)
		}
	}
	check()
}

func TestRunResilientWatchdogTimeoutDisabledByDefault(t *testing.T) {
	// AttemptTimeout 0: a slow worker is not killed.
	slow := func(_ context.Context, x int) (int, error) {
		time.Sleep(30 * time.Millisecond)
		return x, nil
	}
	rep, err := Run(context.Background(), upTo(2,
		func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{slow},
		func(i, o int) error { return nil },
		Policy{}, nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.WatchdogKills != 0 {
		t.Fatalf("WatchdogKills = %d with watchdog disabled", rep.WatchdogKills)
	}
}

func TestRunResilientAdmissionSerializesUnderTightBudget(t *testing.T) {
	const n = 10
	gate, err := NewGate(100)
	if err != nil {
		t.Fatal(err)
	}
	// Every partition weighs 60 bytes: only one fits at a time, so the run
	// serialises but still completes with peak residency under budget.
	var inFlight, maxInFlight atomic.Int64
	rep, runErr := Run(context.Background(), upTo(n,
		func(i int) (int, error) {
			if cur := inFlight.Add(1); cur > maxInFlight.Load() {
				maxInFlight.Store(cur)
			}
			return i, nil
		}),
		[]Worker[int, int]{
			func(_ context.Context, x int) (int, error) { return x, nil },
			func(_ context.Context, x int) (int, error) { return x, nil },
		},
		func(i, o int) error { inFlight.Add(-1); return nil },
		Policy{Admission: gate, AdmissionWeight: func(i int) int64 {
			if i >= n {
				return 0 // the end-of-input probe holds no memory
			}
			return 60
		}}, nil)
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	if len(rep.Written) != n {
		t.Fatalf("Written has %d entries, want %d", len(rep.Written), n)
	}
	for i, w := range rep.Written {
		if !w {
			t.Fatalf("partition %d not written", i)
		}
	}
	if got := maxInFlight.Load(); got != 1 {
		t.Fatalf("max in-flight partitions = %d, want 1 under a one-at-a-time budget", got)
	}
	s := rep.Admission
	if s.Admissions != n {
		t.Fatalf("Admissions = %d, want %d", s.Admissions, n)
	}
	if s.PeakBytes > 100 {
		t.Fatalf("PeakBytes = %d exceeds budget", s.PeakBytes)
	}
	if s.Waits == 0 {
		t.Fatal("Waits = 0, want queueing under a tight budget")
	}
	// The gate must end balanced: the full budget is acquirable again.
	if err := gate.Acquire(context.Background(), 100); err != nil {
		t.Fatalf("gate unbalanced after run: %v", err)
	}
}

func TestRunResilientCancelWhileQueuedForAdmissionReleasesGate(t *testing.T) {
	check := goroutineFence(t)
	gate, err := NewGate(10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("stop")

	// Partition 0 holds the whole budget inside the work stage until the
	// context dies; partition 1 queues for admission and must not leak.
	release := make(chan struct{})
	rep, runErr := func() (Report, error) {
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel(cause)
			close(release)
		}()
		return Run(ctx, upTo(2,
			func(i int) (int, error) { return i, nil }),
			[]Worker[int, int]{func(wctx context.Context, x int) (int, error) {
				<-wctx.Done()
				return 0, wctx.Err()
			}},
			func(i, o int) error { return nil },
			Policy{Admission: gate, AdmissionWeight: func(int) int64 { return 10 }}, nil)
	}()
	<-release
	if runErr == nil || !errors.Is(runErr, cause) {
		t.Fatalf("err = %v, want cause %v", runErr, cause)
	}
	if !rep.Canceled {
		t.Fatal("Report.Canceled = false")
	}
	// All grants must have been returned despite the cancellation.
	if err := gate.Acquire(context.Background(), 10); err != nil {
		t.Fatalf("gate leaked a grant across cancellation: %v", err)
	}
	check()
}
