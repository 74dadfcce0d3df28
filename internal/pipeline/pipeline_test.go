package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// upTo ends a test input after n slots.
func upTo[I any](n int, read func(i int) (I, error)) func(int) (I, error) {
	return func(i int) (I, error) {
		if i >= n {
			var zero I
			return zero, ErrEndOfInput
		}
		return read(i)
	}
}

func TestRunProcessesAllPartitionsInOrder(t *testing.T) {
	const n = 50
	read := func(i int) (int, error) { return i, nil }
	double := func(_ context.Context, x int) (int, error) { return 2 * x, nil }
	workers := []Worker[int, int]{double, double, double}

	var got []int
	write := func(i, o int) error {
		if o != 2*i {
			return fmt.Errorf("partition %d produced %d", i, o)
		}
		got = append(got, i)
		return nil
	}
	rep, err := Run(context.Background(), upTo(n, read), workers, write, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assignment := rep.Assignment
	if len(got) != n {
		t.Fatalf("wrote %d partitions, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("output order broken at %d: %d", i, v)
		}
	}
	if len(assignment) != n {
		t.Fatalf("assignment has %d entries", len(assignment))
	}
	for i, w := range assignment {
		if w < 0 || w >= len(workers) {
			t.Fatalf("partition %d assigned to bogus worker %d", i, w)
		}
	}
}

func TestRunWorkStealing(t *testing.T) {
	// With multiple workers and enough partitions, more than one worker
	// should get work (they all steal from the same queue).
	const n = 200
	var perWorker [4]atomic.Int64
	workers := make([]Worker[int, int], 4)
	for w := range workers {
		w := w
		workers[w] = func(_ context.Context, x int) (int, error) {
			perWorker[w].Add(1)
			return x, nil
		}
	}
	_, err := Run(context.Background(), upTo(n, func(i int) (int, error) { return i, nil }), workers,
		func(i, o int) error { return nil }, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for w := range perWorker {
		total += perWorker[w].Load()
	}
	if total != n {
		t.Fatalf("workers processed %d partitions, want %d", total, n)
	}
}

func TestRunReadError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), upTo(10,
		func(i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		}),
		[]Worker[int, int]{func(_ context.Context, x int) (int, error) { return x, nil }},
		func(i, o int) error { return nil }, Policy{}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("read error not surfaced: %v", err)
	}
}

func TestRunWorkerError(t *testing.T) {
	boom := errors.New("kaput")
	_, err := Run(context.Background(), upTo(10,
		func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{func(_ context.Context, x int) (int, error) {
			if x == 5 {
				return 0, boom
			}
			return x, nil
		}},
		func(i, o int) error { return nil }, Policy{}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("worker error not surfaced: %v", err)
	}
}

func TestRunWriteError(t *testing.T) {
	boom := errors.New("disk full")
	_, err := Run(context.Background(), upTo(10,
		func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{func(_ context.Context, x int) (int, error) { return x, nil }},
		func(i, o int) error {
			if i == 7 {
				return boom
			}
			return nil
		}, Policy{}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("write error not surfaced: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run[int, int](context.Background(), upTo(5, func(i int) (int, error) { return 0, nil }), nil,
		func(int, int) error { return nil }, Policy{}, nil); err == nil {
		t.Error("no workers accepted")
	}
}

func TestRunZeroPartitions(t *testing.T) {
	// ErrEndOfInput at slot 0: nothing is computed or written, and the
	// report is empty.
	var calls atomic.Int64
	rep, err := Run(context.Background(), upTo(0, func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{func(_ context.Context, x int) (int, error) { calls.Add(1); return x, nil }},
		func(i, o int) error { calls.Add(1); return nil }, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 || len(rep.Assignment) != 0 || len(rep.Written) != 0 {
		t.Fatalf("empty input: %d stage calls, report %+v", calls.Load(), rep)
	}
}

func TestRunEndOfInputSizesReport(t *testing.T) {
	// ErrEndOfInput at slot n sizes the report to n slots, all written.
	// A read error that merely wraps io.EOF is a failed slot, not the end.
	const n = 7
	var reads atomic.Int64
	rep, err := Run(context.Background(), func(i int) (int, error) {
		reads.Add(1)
		if i == n {
			return 0, ErrEndOfInput
		}
		if i > n {
			t.Errorf("read(%d) called after the end of input", i)
		}
		return i, nil
	}, []Worker[int, int]{okWorker, okWorker}, func(i, o int) error { return nil }, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Assignment) != n || len(rep.Written) != n {
		t.Fatalf("report sized %d/%d, want %d", len(rep.Assignment), len(rep.Written), n)
	}
	for i, w := range rep.Written {
		if !w {
			t.Errorf("slot %d not written", i)
		}
	}
	if reads.Load() != n+1 {
		t.Errorf("read called %d times, want %d", reads.Load(), n+1)
	}

	rep, err = Run(context.Background(), upTo(3, func(i int) (int, error) {
		if i == 1 {
			return 0, fmt.Errorf("decoding: %w", io.EOF)
		}
		return i, nil
	}), []Worker[int, int]{okWorker}, func(i, o int) error { return nil }, Policy{}, nil)
	if !errors.Is(err, io.EOF) || len(rep.Written) != 3 || rep.Written[1] || !rep.Written[2] {
		t.Fatalf("wrapped io.EOF: err %v, written %v; want slot 1 failed, slot 2 written", err, rep.Written)
	}
}

func TestRunAssignmentOnFailure(t *testing.T) {
	// An immediate read failure must leave every assignment entry at -1:
	// before the sentinel, untouched partitions were mis-attributed to
	// worker 0 (the zero value).
	boom := errors.New("boom")
	rep, err := Run(context.Background(), upTo(8,
		func(i int) (int, error) { return 0, boom }),
		[]Worker[int, int]{func(_ context.Context, x int) (int, error) { return x, nil }},
		func(i, o int) error { return nil }, Policy{}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("read error not surfaced: %v", err)
	}
	if len(rep.Assignment) != 8 {
		t.Fatalf("assignment has %d entries, want 8", len(rep.Assignment))
	}
	for i, w := range rep.Assignment {
		if w != -1 {
			t.Errorf("partition %d attributed to worker %d on failure, want -1", i, w)
		}
	}
}

func TestRunPromptShutdown(t *testing.T) {
	// Once the run is canceled, a worker must stop at claim time — not
	// fully process the slot it claims next because it is already queued.
	// The sole worker, holding slot 0, waits until slot 1 is queued, then
	// cancels the run; it must never run slot 1.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan struct{})
	var processed [3]atomic.Bool
	read := func(i int) (int, error) {
		if i == 1 {
			close(queued)
		}
		return i, nil
	}
	worker := func(_ context.Context, x int) (int, error) {
		if x == 0 {
			<-queued
			time.Sleep(20 * time.Millisecond) // let slot 1 land in the queue
			cancel()
			// The canceled flag is set by the run's watcher after cancel
			// returns; give it time to land so the claim-time check is
			// actually exercised.
			time.Sleep(50 * time.Millisecond)
		}
		processed[x].Store(true)
		return x, nil
	}
	_, err := Run(ctx, upTo(3, read), []Worker[int, int]{worker},
		func(i, o int) error { return nil }, Policy{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation", err)
	}
	if processed[1].Load() {
		t.Error("worker processed slot 1 after the run was canceled")
	}
}

func TestRunReadAheadStopsAtWindow(t *testing.T) {
	// While the writer is stuck on slot 0, the read stage reads exactly
	// 2×len(workers) slots and then waits.
	const n = 40
	workers := []Worker[int, int]{okWorker, okWorker, okWorker}
	var reads atomic.Int64
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), upTo(n, func(i int) (int, error) {
			reads.Add(1)
			return i, nil
		}), workers, func(i, o int) error {
			if i == 0 {
				<-release
			}
			return nil
		}, Policy{}, nil)
		done <- err
	}()
	want := int64(2 * len(workers))
	deadline := time.Now().Add(5 * time.Second)
	for reads.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for a runaway reader to show
	if got := reads.Load(); got != want {
		t.Errorf("read %d slots while the writer held slot 0, want %d", got, want)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := reads.Load(); got != n {
		t.Errorf("read %d slots, want %d", got, n)
	}
}

// windowCheck verifies the read-ahead bound from outside the runner. The
// writer's true position is the first slot that is not yet terminal
// (written or permanently failed); the checker marks slots terminal no
// later than the runner does, so its position is never behind the
// writer's and a read it flags is a real window violation.
type windowCheck struct {
	mu       sync.Mutex
	limit    int
	terminal map[int]bool
	maxAhead int
}

func (c *windowCheck) done(i int) {
	c.mu.Lock()
	c.terminal[i] = true
	c.mu.Unlock()
}

func (c *windowCheck) read(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pos := 0
	for c.terminal[pos] {
		pos++
	}
	if ahead := i - pos + 1; ahead > c.maxAhead {
		c.maxAhead = ahead
	}
}

func TestRunReadAheadWindowUnderFaults(t *testing.T) {
	const n = 60
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		// workers builds the run's workers over the checker; cancelAt,
		// when positive, cancels the run once that many slots are written.
		workers  func(c *windowCheck) []Worker[int, int]
		write    func(c *windowCheck, i int) error
		pol      Policy
		cancelAt int64
		wantErr  bool
	}{
		{
			name: "write failures",
			workers: func(*windowCheck) []Worker[int, int] {
				return []Worker[int, int]{okWorker, okWorker}
			},
			write: func(c *windowCheck, i int) error {
				if i%3 == 0 {
					return boom
				}
				return nil
			},
			pol:     Policy{MaxAttempts: 2},
			wantErr: true,
		},
		{
			name: "work failures",
			workers: func(c *windowCheck) []Worker[int, int] {
				w := func(_ context.Context, x int) (int, error) {
					if x%5 == 0 {
						c.done(x) // one attempt: the failure is final
						return 0, boom
					}
					return x, nil
				}
				return []Worker[int, int]{w, w}
			},
			pol:     Policy{MaxAttempts: 1},
			wantErr: true,
		},
		{
			name: "quarantine",
			workers: func(*windowCheck) []Worker[int, int] {
				dead := func(context.Context, int) (int, error) { return 0, boom }
				return []Worker[int, int]{okWorker, dead, okWorker}
			},
			pol: Policy{MaxAttempts: 3, QuarantineAfter: 1},
		},
		{
			name: "cancellation",
			workers: func(*windowCheck) []Worker[int, int] {
				return []Worker[int, int]{okWorker, okWorker}
			},
			cancelAt: 10,
			wantErr:  true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := goroutineFence(t)
			workers := tc.workers(nil)
			c := &windowCheck{limit: 2 * len(workers), terminal: map[int]bool{}}
			workers = tc.workers(c)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var written atomic.Int64
			_, err := Run(ctx, upTo(n, func(i int) (int, error) {
				c.read(i)
				return i, nil
			}), workers, func(i, o int) error {
				c.done(i)
				time.Sleep(100 * time.Microsecond) // let the reader run ahead
				if tc.write != nil {
					if err := tc.write(c, i); err != nil {
						return err
					}
				}
				if written.Add(1) == tc.cancelAt {
					cancel()
				}
				return nil
			}, tc.pol, nil)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if c.maxAhead > c.limit {
				t.Errorf("read stage ran %d slots ahead of the writer, limit %d", c.maxAhead, c.limit)
			}
			check()
		})
	}
}

// spanLog is a concurrency-safe SpanRecorder for tests.
type spanLog struct {
	mu    sync.Mutex
	spans []recordedSpan
}

type recordedSpan struct {
	stage             string
	partition, worker int
	start, end        time.Time
}

func (l *spanLog) StageSpan(stage string, partition, worker int, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, recordedSpan{stage, partition, worker, start, end})
}

func TestRunTracedRecordsSpans(t *testing.T) {
	const n = 10
	var log spanLog
	_, err := Run(context.Background(), upTo(n,
		func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{func(_ context.Context, x int) (int, error) { return x, nil }},
		func(i, o int) error { return nil }, Policy{},
		&log)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string][]int{
		StageRead:    make([]int, n),
		StageCompute: make([]int, n),
		StageWrite:   make([]int, n),
	}
	for _, s := range log.spans {
		perPart, ok := counts[s.stage]
		if !ok {
			t.Fatalf("unknown stage %q", s.stage)
		}
		perPart[s.partition]++
		if s.end.Before(s.start) {
			t.Errorf("%s span of partition %d ends before it starts", s.stage, s.partition)
		}
		if s.stage == StageCompute {
			if s.worker != 0 {
				t.Errorf("compute span worker = %d, want 0", s.worker)
			}
		} else if s.worker != -1 {
			t.Errorf("%s span worker = %d, want -1", s.stage, s.worker)
		}
	}
	for stage, perPart := range counts {
		for i, c := range perPart {
			if c != 1 {
				t.Errorf("stage %s partition %d recorded %d spans, want 1", stage, i, c)
			}
		}
	}
}

func mkParts(n int, in, out float64, costs ...float64) []Partition {
	parts := make([]Partition, n)
	for i := range parts {
		cs := make([]float64, len(costs))
		copy(cs, costs)
		parts[i] = Partition{InputSeconds: in, OutputSeconds: out, ComputeSeconds: cs, WorkUnits: 1}
	}
	return parts
}

func TestSimulateSingleProcessor(t *testing.T) {
	// 4 partitions: input 1s, compute 2s, output 1s. Pipelined on one
	// processor: compute dominates; makespan = first input (1) + 4×2 + last
	// output (1) = 10.
	parts := mkParts(4, 1, 1, 2)
	s, err := Simulate(parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Elapsed-10) > 1e-9 {
		t.Errorf("elapsed = %.2f, want 10", s.Elapsed)
	}
	if math.Abs(s.NonPipelinedElapsed-16) > 1e-9 {
		t.Errorf("non-pipelined = %.2f, want 16", s.NonPipelinedElapsed)
	}
}

func TestSimulateIOBound(t *testing.T) {
	// Input dominates: compute hides entirely inside input transfer.
	parts := mkParts(10, 5, 1, 0.5)
	s, err := Simulate(parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Makespan ≈ 10×5 + 0.5 + 1 = 51.5.
	if math.Abs(s.Elapsed-51.5) > 1e-9 {
		t.Errorf("elapsed = %.2f, want 51.5", s.Elapsed)
	}
	// Pipelining should save roughly the compute+output time (Fig. 12's
	// IO-dominated case saves half when in/out/compute are comparable).
	if s.NonPipelinedElapsed <= s.Elapsed {
		t.Error("pipelining should beat sequential stages")
	}
}

func TestSimulateFasterProcessorGetsMoreWork(t *testing.T) {
	// Processor 0 takes 4s per partition, processor 1 takes 1s: processor 1
	// should end up with ~4x the partitions (work-stealing balance).
	parts := mkParts(100, 0.01, 0.01, 4, 1)
	s, err := Simulate(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcParts[1] <= 2*s.ProcParts[0] {
		t.Errorf("fast processor got %d parts vs slow %d; want ~4x", s.ProcParts[1], s.ProcParts[0])
	}
	shares := s.WorkloadShares()
	ideal := IdealShares([]float64{400, 100}) // solo times
	if math.Abs(shares[1]-ideal[1]) > 0.10 {
		t.Errorf("fast share %.2f, ideal %.2f", shares[1], ideal[1])
	}
}

func TestSimulateCoprocessingBeatsSolo(t *testing.T) {
	parts := mkParts(64, 0.01, 0.01, 1, 1)
	solo, err := Simulate(mkParts(64, 0.01, 0.01, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	duo, err := Simulate(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	speedup := solo.Elapsed / duo.Elapsed
	if speedup < 1.8 || speedup > 2.05 {
		t.Errorf("2-processor speedup = %.2f, want ~2", speedup)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(nil, 0); err == nil {
		t.Error("numProcs=0 accepted")
	}
	if _, err := Simulate(mkParts(1, 0, 0, 1), 2); err == nil {
		t.Error("cost arity mismatch accepted")
	}
}

func TestSimulateEmpty(t *testing.T) {
	s, err := Simulate(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Elapsed != 0 || s.NonPipelinedElapsed != 0 {
		t.Errorf("empty schedule: %+v", s)
	}
	if shares := s.WorkloadShares(); shares[0] != 0 || shares[1] != 0 {
		t.Error("empty shares should be zero")
	}
}

func TestIdealShares(t *testing.T) {
	shares := IdealShares([]float64{100, 50})
	if math.Abs(shares[0]-1.0/3) > 1e-9 || math.Abs(shares[1]-2.0/3) > 1e-9 {
		t.Errorf("shares = %v", shares)
	}
	zero := IdealShares([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("all-zero solo times should give zero shares")
	}
}

func TestSimulateStageSpans(t *testing.T) {
	parts := mkParts(20, 0.5, 0.3, 2, 1)
	s, err := Simulate(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(parts)
	for _, arr := range [][]float64{s.InputStart, s.InputEnd, s.ComputeStart, s.ComputeEnd, s.OutputStart, s.OutputEnd} {
		if len(arr) != n {
			t.Fatalf("span array length %d, want %d", len(arr), n)
		}
	}
	for i := range parts {
		if s.InputEnd[i]-s.InputStart[i] != parts[i].InputSeconds {
			t.Errorf("partition %d input span %.2f, want %.2f", i,
				s.InputEnd[i]-s.InputStart[i], parts[i].InputSeconds)
		}
		if s.ComputeStart[i] < s.InputEnd[i] {
			t.Errorf("partition %d computed before its input landed", i)
		}
		want := parts[i].ComputeSeconds[s.Assignment[i]]
		if got := s.ComputeEnd[i] - s.ComputeStart[i]; math.Abs(got-want) > 1e-9 {
			t.Errorf("partition %d compute span %.2f, want %.2f", i, got, want)
		}
		if s.OutputStart[i] < s.ComputeEnd[i] {
			t.Errorf("partition %d written before it was produced", i)
		}
		if i > 0 && s.OutputStart[i] < s.OutputEnd[i-1] {
			t.Errorf("partition %d output overlaps partition %d", i, i-1)
		}
	}
	if s.OutputEnd[n-1] != s.Elapsed {
		t.Errorf("last output ends at %.2f, elapsed %.2f", s.OutputEnd[n-1], s.Elapsed)
	}
}

func TestSimulateDeterminism(t *testing.T) {
	parts := mkParts(50, 0.3, 0.2, 2, 1.5, 1.1)
	a, err := Simulate(parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Error("simulation not deterministic")
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("assignment not deterministic")
		}
	}
}
