// Package pipeline implements ParaHash's work-stealing co-processing
// pipeline (§III-E): a three-stage flow — input, consuming and producing,
// output — in which whichever processor is idle claims the next ready item
// off one shared queue. Run is the package's only scheduler. The paper
// synchronises its stages with four shared counters; Run keeps the same
// positions in one mutex-guarded state:
//
//   - srv, the tail of the input queue, is the number of slots read;
//   - cns, the next queuing id a processor claims, is the head of the
//     ready queue;
//   - prd counts the slots marked produced;
//   - wrt, the head of the output queue, is the writer's slot index.
//
// A slot is one pipeline item (a Step 1 chunk or a Step 2 partition). The
// input is a stream: the read stage calls read(0), read(1), ... until it
// returns ErrEndOfInput, and it runs at most 2×len(workers) slots ahead of
// wrt, so a streaming source is never parsed far ahead of the processors.
//
// The package also provides Simulate, a deterministic virtual-time
// scheduler over the same greedy idle-processor-takes-next policy, which
// the experiment harness uses to regenerate the paper's co-processing and
// pipelining figures on any host.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Stage names used for span recording and fault reporting.
const (
	StageRead    = "read"
	StageCompute = "compute"
	StageWrite   = "write"
)

// SpanRecorder receives wall-clock stage spans from a pipeline run: one call
// per read / compute / write invocation, with the slot index and, for
// compute spans, the worker that ran it (-1 for the IO stages). Retried
// attempts each produce their own span. Implementations must be safe for
// concurrent use from every pipeline goroutine.
type SpanRecorder interface {
	StageSpan(stage string, partition, worker int, start, end time.Time)
}

// Worker consumes one input item and produces one output item. A Worker
// models a processor in the consuming-and-producing stage; Run invokes each
// worker from its own goroutine only, so workers may keep unsynchronised
// internal state. The context carries the run's (and, under the watchdog,
// the attempt's) cancellation: workers doing long compute must check it
// periodically and return its error.
type Worker[I, O any] func(ctx context.Context, item I) (O, error)

// ErrEndOfInput is returned by a read function to end the input: the slot
// it was asked for does not exist. It is deliberately not io.EOF, so a
// store or decoder error that wraps io.EOF fails its slot instead of
// silently truncating the input.
var ErrEndOfInput = errors.New("pipeline: end of input")

// ErrNoHealthyWorkers reports that every worker was quarantined before the
// run completed; the slots that were not yet produced fail with it.
var ErrNoHealthyWorkers = errors.New("pipeline: all workers quarantined")

// ErrAttemptTimeout reports a work-stage attempt the watchdog abandoned
// because it exceeded Policy.AttemptTimeout. It counts as an ordinary worker
// fault: the slot is retried (possibly on another processor) and the
// worker's consecutive-failure count advances toward quarantine.
var ErrAttemptTimeout = errors.New("pipeline: partition attempt deadline exceeded")

// Policy configures Run's fault handling. The zero value retries nothing
// and never quarantines: every failure is final for its slot, but the other
// slots still run and all failures are aggregated.
type Policy struct {
	// MaxAttempts is the per-slot attempt budget per stage (read, work,
	// write). 1 — and, normalised, anything below 1 — means fail fast: no
	// retries.
	MaxAttempts int
	// QuarantineAfter quarantines a worker once its consecutive-failure
	// count reaches this threshold: the worker stops claiming slots and its
	// last slot is re-queued onto the survivors without charging the slot's
	// attempt budget (the fault is the processor's, not the slot's). 0
	// disables quarantine.
	QuarantineAfter int
	// BackoffSeconds is the virtual-time backoff charged before retry k of
	// a slot: BackoffSeconds * 2^(k-1). It is accounting only — no
	// goroutine sleeps — so runs stay deterministic and host-independent.
	BackoffSeconds float64
	// BackoffJitter spreads each retry's backoff by a uniformly drawn
	// factor in [1-BackoffJitter, 1+BackoffJitter]. Without jitter, N
	// concurrent builds retrying a shared-store fault back off in lockstep
	// and re-collide as a thundering herd; with it their retry schedules
	// decorrelate. Must be in [0, 1]; 0 keeps the exact exponential
	// schedule. Draws come from a generator seeded by BackoffJitterSeed, so
	// a given (seed, fault sequence) charges a reproducible backoff total.
	BackoffJitter float64
	// BackoffJitterSeed seeds the jitter stream; two runs with the same
	// seed and fault sequence charge identical backoff, two runs with
	// different seeds decorrelate.
	BackoffJitterSeed int64
	// Retryable classifies read- and write-stage errors; a non-retryable
	// error fails the slot immediately without burning retries. Worker
	// errors are always eligible for retry because another (heterogeneous)
	// worker may well succeed where this one failed. nil treats every
	// error as retryable.
	Retryable func(error) bool

	// AttemptTimeout is the watchdog deadline for one work-stage attempt in
	// wall-clock time; 0 disables the watchdog. An expired attempt is
	// abandoned (its context is canceled, so cooperative workers return
	// promptly) and charged as a worker fault wrapping ErrAttemptTimeout.
	AttemptTimeout time.Duration
	// Admission, when non-nil, is the memory-budget gate each slot must
	// pass before its read stage loads it: admitted before read, released
	// when the slot reaches a terminal state (written or permanently
	// failed). Reads are sequential, so admission order equals write order
	// and the gate can never deadlock the in-order writer.
	Admission *Gate
	// AdmissionWeight returns a slot's admission weight in bytes (typically
	// its Property-1 predicted hash table footprint). A weight of zero or
	// less bypasses the gate, which is how a caller that knows its input
	// length lets the end-of-input probe through. nil weights every slot 1
	// byte. Ignored without Admission.
	AdmissionWeight func(i int) int64
}

// PartitionError records one failed attempt at one slot. Recovered
// attempts appear in Report.Faults; permanent failures are additionally
// joined into Run's returned error.
type PartitionError struct {
	// Partition is the slot index.
	Partition int
	// Stage is "read", "work" or "write".
	Stage string
	// Worker is the failing worker's index for stage "work", else -1.
	Worker int
	// Attempt is the 1-based attempt number that failed.
	Attempt int
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *PartitionError) Error() string {
	if e.Stage == "work" {
		return fmt.Sprintf("pipeline: worker %d on partition %d (attempt %d): %v",
			e.Worker, e.Partition, e.Attempt, e.Err)
	}
	return fmt.Sprintf("pipeline: %s partition %d (attempt %d): %v",
		e.Stage, e.Partition, e.Attempt, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PartitionError) Unwrap() error { return e.Err }

// Report summarises a run for degraded-mode accounting. Its per-slot slices
// cover exactly the slots the read stage created, so a run that ends (or
// stops) early reports fewer entries than a complete one.
type Report struct {
	// Assignment is the worker that produced each slot (-1 if the slot was
	// never produced).
	Assignment []int
	// Written marks each slot whose write stage succeeded — i.e. its output
	// is durably committed through the write closure. On a partial failure
	// it tells callers exactly which slots' outputs survive (e.g. which a
	// checkpointed build may later resume from).
	Written []bool
	// Retries counts failed attempts that were retried (read, work and
	// write stages combined).
	Retries int
	// Requeues counts slots re-queued for free because their worker was
	// quarantined mid-slot.
	Requeues int
	// Quarantined lists quarantined worker indices in quarantine order.
	Quarantined []int
	// BackoffSeconds is the total virtual backoff charged across retries.
	BackoffSeconds float64
	// Faults records every failed attempt, including ones that later
	// recovered.
	Faults []PartitionError
	// FailedPartitions lists permanently failed slots, sorted.
	FailedPartitions []int

	// WatchdogKills counts work-stage attempts the watchdog abandoned
	// because they exceeded Policy.AttemptTimeout.
	WatchdogKills int
	// Canceled reports that the run was cut short by its context; Written
	// still marks exactly the slots whose outputs were committed.
	Canceled bool
	// CanceledAttempts counts stage attempts cut short by cancellation
	// (their slots are not charged a failed attempt).
	CanceledAttempts int
	// Admission summarises the memory-budget gate's work (zero without
	// Policy.Admission).
	Admission GateStats
}

// slot is one pipeline item's state. Its input is dropped once it is
// produced and its output once it is written, so a long stream holds only
// the slots in flight.
type slot[I, O any] struct {
	in       I
	out      O
	produced bool
	written  bool
	failed   error // permanent failure
	attempts int   // charged failed work attempts
	worker   int   // producing worker, -1 until produced
	admitted bool  // holds an admission grant of weight
	weight   int64
}

// runState is the shared mutable state of one Run invocation, guarded by
// mu.
type runState[I, O any] struct {
	mu   sync.Mutex
	cond *sync.Cond

	slots       []slot[I, O]
	queue       []int // slots ready for a worker to claim
	wrt         int   // the writer's slot index
	inputDone   bool  // the read stage has stopped creating slots
	consec      []int // consecutive failures per worker
	quarantined []bool
	healthy     int
	abandoned   bool // all workers quarantined
	canceled    bool // the run context was canceled
	writerDone  bool

	pol    Policy
	jitter *rand.Rand // nil when BackoffJitter == 0
	rep    *Report
}

// chargeRetryLocked books one retried attempt and its exponential virtual
// backoff, spread by the seeded jitter factor when the policy asks for one.
// attempt is the 1-based attempt that just failed.
func (st *runState[I, O]) chargeRetryLocked(attempt int) {
	st.rep.Retries++
	backoff := st.pol.BackoffSeconds * float64(int64(1)<<uint(attempt-1))
	if st.jitter != nil {
		backoff *= 1 + st.pol.BackoffJitter*(2*st.jitter.Float64()-1)
	}
	st.rep.BackoffSeconds += backoff
}

// failLocked marks a slot permanently failed (first failure wins), drops
// its payloads and returns its admission grant — a dead slot must not hold
// budget that live slots are queueing for.
func (st *runState[I, O]) failLocked(i int, err error) {
	s := &st.slots[i]
	if s.failed == nil {
		s.failed = err
	}
	var zeroIn I
	var zeroOut O
	s.in, s.out = zeroIn, zeroOut
	st.releaseLocked(i)
}

// releaseLocked returns slot i's admission grant exactly once.
func (st *runState[I, O]) releaseLocked(i int) {
	if s := &st.slots[i]; s.admitted {
		s.admitted = false
		st.pol.Admission.Release(s.weight)
	}
}

// abandonLocked fails every slot that has no output yet; called when the
// last healthy worker is quarantined. cause is the fault that retired the
// final worker, kept in the chain so callers can still errors.Is the
// underlying device error.
func (st *runState[I, O]) abandonLocked(cause error) {
	st.abandoned = true
	for i := range st.slots {
		if !st.slots[i].produced && st.slots[i].failed == nil {
			st.failLocked(i, fmt.Errorf("pipeline: partition %d: %w (last worker fault: %w)",
				i, ErrNoHealthyWorkers, cause))
		}
	}
}

// Run pipelines a stream of slots through three overlapped stages:
//
//	read(i)    — stage 1, called sequentially for i = 0, 1, ... until it
//	             returns ErrEndOfInput, never more than 2×len(workers)
//	             slots ahead of the writer;
//	workers    — stage 2, each claiming slots off the shared queue (work
//	             stealing: whichever worker is idle takes the next);
//	write(i,o) — stage 3, called sequentially in slot order.
//
// On top of the paper's pipeline it applies pol's fault handling:
//
//   - a failed read or write is retried up to pol.MaxAttempts times with
//     deterministic virtual-time backoff;
//   - a failed worker attempt re-queues the slot (any worker may pick it
//     up) until the slot's attempt budget is exhausted;
//   - a work-stage attempt that outlives pol.AttemptTimeout is abandoned by
//     the watchdog and charged as a worker fault (wrapping
//     ErrAttemptTimeout), so a hung processor feeds the same retry and
//     quarantine machinery as a failing one;
//   - a worker whose consecutive-failure count reaches pol.QuarantineAfter
//     is quarantined — it stops claiming work and its slot is re-queued for
//     free, so the run degrades gracefully onto the surviving processors
//     and still succeeds with >= 1 healthy worker; once none is left, the
//     read stage stops and every unproduced slot fails;
//   - each slot passes pol.Admission (when set) before its read stage,
//     bounding concurrent working-set bytes under the memory budget;
//   - permanently failed slots do not abort the run: the remaining slots
//     are still processed and written in order, and all permanent errors
//     are aggregated (errors.Join) into the returned error;
//   - canceling ctx stops the run promptly and leak-free: in-flight stage
//     attempts are released via their attempt contexts, no new attempt
//     starts, already-written slots stay committed (Report.Written), and
//     the returned error wraps the context's cause.
//
// rec, when non-nil, observes every stage attempt (retries included). The
// Report is always valid, even when an error is returned.
func Run[I, O any](ctx context.Context, read func(i int) (I, error), workers []Worker[I, O], write func(i int, o O) error, pol Policy, rec SpanRecorder) (Report, error) {
	rep := Report{}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(workers) == 0 {
		return rep, fmt.Errorf("pipeline: no workers")
	}
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	if pol.BackoffJitter < 0 || pol.BackoffJitter > 1 {
		return rep, fmt.Errorf("pipeline: BackoffJitter=%g out of range [0,1]", pol.BackoffJitter)
	}
	retryable := pol.Retryable
	if retryable == nil {
		retryable = func(error) bool { return true }
	}
	weigh := pol.AdmissionWeight
	if weigh == nil {
		weigh = func(int) int64 { return 1 }
	}
	window := 2 * len(workers)

	st := &runState[I, O]{
		consec:      make([]int, len(workers)),
		quarantined: make([]bool, len(workers)),
		healthy:     len(workers),
		pol:         pol,
		rep:         &rep,
	}
	if pol.BackoffJitter > 0 {
		// One seeded stream per run, consumed in retry order under st.mu, so
		// the charged total is a deterministic function of (seed, fault
		// sequence) while distinct seeds decorrelate concurrent builds.
		st.jitter = rand.New(rand.NewSource(pol.BackoffJitterSeed))
	}
	st.cond = sync.NewCond(&st.mu)

	// runCtx cancels with the caller's ctx, and additionally when the run
	// abandons (all workers quarantined) so an admission wait never blocks a
	// run that can no longer make progress.
	runCtx, runCancel := context.WithCancelCause(ctx)
	defer runCancel(nil)

	// The watcher translates the caller's cancellation into shared state and
	// wakes every condition wait. It watches the caller's ctx, not runCtx, so
	// an internal abandon is not misreported as a cancellation.
	watcherStop := make(chan struct{})
	var watcherWg sync.WaitGroup
	watcherWg.Add(1)
	go func() {
		defer watcherWg.Done()
		select {
		case <-ctx.Done():
			st.mu.Lock()
			st.canceled = true
			st.cond.Broadcast()
			st.mu.Unlock()
		case <-watcherStop:
		}
	}()

	var wg sync.WaitGroup

	// Stage 1: input. Reads slots in order until the end of the input,
	// each inside the read-ahead window and after its admission grant,
	// retrying transient faults; a permanently unreadable slot is recorded
	// as failed and the stream continues.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			st.mu.Lock()
			st.inputDone = true
			st.cond.Broadcast()
			st.mu.Unlock()
		}()
		for i := 0; ; i++ {
			st.mu.Lock()
			for i >= st.wrt+window && !st.abandoned && !st.canceled {
				st.cond.Wait()
			}
			stop := st.abandoned || st.canceled
			st.mu.Unlock()
			if stop {
				return
			}

			w := weigh(i)
			admitted := pol.Admission != nil && w > 0
			if admitted {
				if err := pol.Admission.Acquire(runCtx, w); err != nil {
					// Canceled or abandoned while queued.
					st.mu.Lock()
					if st.canceled {
						st.rep.CanceledAttempts++
					}
					st.mu.Unlock()
					return
				}
			}
			item, err := readSlot(st, runCtx, read, i, retryable, rec)

			st.mu.Lock()
			// No slot is created past the end of the input, nor once the
			// run has stopped; a permanently failed read still makes one.
			if err == errRunStopped || errors.Is(err, ErrEndOfInput) || err == nil && (st.abandoned || st.canceled) {
				if admitted {
					pol.Admission.Release(w)
				}
				st.mu.Unlock()
				return
			}
			st.slots = append(st.slots, slot[I, O]{in: item, worker: -1, admitted: admitted, weight: w})
			if err != nil {
				st.failLocked(i, err)
			} else {
				st.queue = append(st.queue, i)
			}
			st.cond.Broadcast()
			st.mu.Unlock()
		}
	}()

	// Stage 2: workers. Each claims queued slots until quarantined or the
	// run completes. Failures re-queue the slot; crossing the quarantine
	// threshold retires the worker; the watchdog abandons attempts that
	// outlive pol.AttemptTimeout.
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				st.mu.Lock()
				for len(st.queue) == 0 && !st.writerDone && !st.quarantined[w] && !st.abandoned && !st.canceled {
					st.cond.Wait()
				}
				if st.writerDone || st.quarantined[w] || st.abandoned || st.canceled {
					st.mu.Unlock()
					return
				}
				id := st.queue[0]
				st.queue = st.queue[1:]
				item := st.slots[id].in
				st.mu.Unlock()

				start := time.Now()
				out, err := runAttempt(runCtx, pol.AttemptTimeout, workers[w], item)
				if rec != nil {
					rec.StageSpan(StageCompute, id, w, start, time.Now())
				}

				st.mu.Lock()
				s := &st.slots[id]
				if err == nil {
					st.consec[w] = 0
					var zero I
					s.in, s.out = zero, out
					s.produced = true
					s.worker = w
					st.cond.Broadcast()
					st.mu.Unlock()
					continue
				}
				if runCtx.Err() != nil && !errors.Is(err, ErrAttemptTimeout) {
					// The run is being canceled (or abandoned); the aborted
					// attempt is not the slot's fault.
					st.rep.CanceledAttempts++
					st.mu.Unlock()
					return
				}
				attempt := s.attempts + 1
				st.rep.Faults = append(st.rep.Faults,
					PartitionError{Partition: id, Stage: "work", Worker: w, Attempt: attempt, Err: err})
				if errors.Is(err, ErrAttemptTimeout) {
					st.rep.WatchdogKills++
				}
				st.consec[w]++
				if pol.QuarantineAfter > 0 && st.consec[w] >= pol.QuarantineAfter {
					st.quarantined[w] = true
					st.rep.Quarantined = append(st.rep.Quarantined, w)
					st.healthy--
					if st.healthy > 0 {
						// The processor is at fault, not the slot: re-queue
						// without charging its attempt budget.
						st.rep.Requeues++
						st.queue = append(st.queue, id)
					} else {
						st.abandonLocked(err)
						runCancel(ErrNoHealthyWorkers)
					}
					st.cond.Broadcast()
					st.mu.Unlock()
					return
				}
				s.attempts = attempt
				if attempt >= pol.MaxAttempts {
					st.failLocked(id, fmt.Errorf("pipeline: worker %d on partition %d (attempt %d/%d): %w",
						w, id, attempt, pol.MaxAttempts, err))
				} else {
					st.chargeRetryLocked(attempt)
					st.queue = append(st.queue, id)
				}
				st.cond.Broadcast()
				st.mu.Unlock()
			}
		}(w)
	}

	// Stage 3: output. Writes produced slots in order, skipping permanently
	// failed ones so one bad slot never blocks the rest. Its position is
	// the read-ahead window's base. Cancellation stops it before the next
	// slot; the in-flight write is allowed to finish so committed outputs
	// are never half-published.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			st.mu.Lock()
			st.wrt = i
			st.cond.Broadcast()
			for !st.canceled && !(st.inputDone && i >= len(st.slots)) &&
				(i >= len(st.slots) || !st.slots[i].produced && st.slots[i].failed == nil) {
				st.cond.Wait()
			}
			if i >= len(st.slots) && st.inputDone {
				st.writerDone = true
				st.cond.Broadcast()
				st.mu.Unlock()
				return
			}
			if st.canceled && (i >= len(st.slots) || !st.slots[i].produced) {
				st.mu.Unlock()
				return
			}
			if st.slots[i].failed != nil {
				st.mu.Unlock()
				continue
			}
			out := st.slots[i].out
			st.mu.Unlock()

			for attempt := 1; ; attempt++ {
				if runCtx.Err() != nil {
					st.mu.Lock()
					st.rep.CanceledAttempts++
					st.mu.Unlock()
					return
				}
				start := time.Now()
				err := write(i, out)
				if rec != nil {
					rec.StageSpan(StageWrite, i, -1, start, time.Now())
				}
				st.mu.Lock()
				if err == nil {
					var zero O
					st.slots[i].out = zero
					st.slots[i].written = true
					st.releaseLocked(i)
					st.mu.Unlock()
					break
				}
				st.rep.Faults = append(st.rep.Faults,
					PartitionError{Partition: i, Stage: "write", Worker: -1, Attempt: attempt, Err: err})
				if attempt >= pol.MaxAttempts || !retryable(err) {
					st.failLocked(i, fmt.Errorf("pipeline: writing partition %d (attempt %d/%d): %w",
						i, attempt, pol.MaxAttempts, err))
					st.mu.Unlock()
					break
				}
				st.chargeRetryLocked(attempt)
				st.mu.Unlock()
			}
		}
	}()

	wg.Wait()
	close(watcherStop)
	watcherWg.Wait()

	// Return any grants still held (e.g. slots admitted but never reaching
	// a terminal state before cancellation), so a shared gate is left
	// balanced, and fold the per-slot outcomes into the report.
	st.mu.Lock()
	n := len(st.slots)
	rep.Assignment = make([]int, n)
	rep.Written = make([]bool, n)
	written := 0
	var errs []error
	for i := range st.slots {
		st.releaseLocked(i)
		s := &st.slots[i]
		rep.Assignment[i] = s.worker
		rep.Written[i] = s.written
		if s.written {
			written++
		}
		if s.failed != nil {
			rep.FailedPartitions = append(rep.FailedPartitions, i)
			errs = append(errs, s.failed)
		}
	}
	canceled := st.canceled
	st.mu.Unlock()

	if pol.Admission != nil {
		rep.Admission = pol.Admission.Stats()
	}
	if canceled {
		rep.Canceled = true
		return rep, fmt.Errorf("pipeline: run canceled after %d of %d partitions written: %w",
			written, n, context.Cause(ctx))
	}
	if len(errs) > 0 {
		return rep, fmt.Errorf("pipeline: %d of %d partitions failed: %w",
			len(errs), n, errors.Join(errs...))
	}
	return rep, nil
}

// errRunStopped is readSlot's report that the run context ended before a
// successful read.
var errRunStopped = errors.New("pipeline: run stopped")

// readSlot runs slot i's read stage with retries. It returns ErrEndOfInput
// when the input has ended, errRunStopped when the run stopped first, and
// otherwise the slot's permanent read failure (nil on success).
func readSlot[I, O any](st *runState[I, O], runCtx context.Context, read func(int) (I, error), i int, retryable func(error) bool, rec SpanRecorder) (I, error) {
	var zero I
	for attempt := 1; ; attempt++ {
		if runCtx.Err() != nil {
			st.mu.Lock()
			st.rep.CanceledAttempts++
			st.mu.Unlock()
			return zero, errRunStopped
		}
		start := time.Now()
		item, err := read(i)
		if errors.Is(err, ErrEndOfInput) {
			return zero, err
		}
		if rec != nil {
			rec.StageSpan(StageRead, i, -1, start, time.Now())
		}
		if err == nil {
			return item, nil
		}
		st.mu.Lock()
		st.rep.Faults = append(st.rep.Faults,
			PartitionError{Partition: i, Stage: "read", Worker: -1, Attempt: attempt, Err: err})
		if attempt >= st.pol.MaxAttempts || !retryable(err) {
			st.mu.Unlock()
			return zero, fmt.Errorf("pipeline: reading partition %d (attempt %d/%d): %w",
				i, attempt, st.pol.MaxAttempts, err)
		}
		st.chargeRetryLocked(attempt)
		st.mu.Unlock()
	}
}

// runAttempt invokes one work-stage attempt under the watchdog: with a
// positive timeout the worker runs under a deadline context and is abandoned
// — its context canceled, its eventual result discarded — once the deadline
// expires. A worker that returns its own deadline error is normalised to the
// same ErrAttemptTimeout, so cooperative and abandoned expiries are
// indistinguishable to the fault accounting.
func runAttempt[I, O any](ctx context.Context, timeout time.Duration, worker Worker[I, O], item I) (O, error) {
	if timeout <= 0 {
		return worker(ctx, item)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type result struct {
		out O
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := worker(actx, item)
		ch <- result{out, err}
	}()
	var zero O
	select {
	case r := <-ch:
		if r.err != nil && ctx.Err() == nil && errors.Is(r.err, context.DeadlineExceeded) {
			return zero, fmt.Errorf("%w (after %v): %v", ErrAttemptTimeout, timeout, r.err)
		}
		return r.out, r.err
	case <-actx.Done():
		if ctx.Err() != nil {
			// The whole run is stopping, not just this attempt.
			return zero, context.Cause(ctx)
		}
		return zero, fmt.Errorf("%w (after %v)", ErrAttemptTimeout, timeout)
	}
}
