package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"parahash/internal/costmodel"
	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/msp"
	"parahash/internal/obs"
	"parahash/internal/pipeline"
	"parahash/internal/store"
)

// superkmerFile names a superkmer partition in the store.
func superkmerFile(i int) string { return fmt.Sprintf("superkmers/%04d", i) }

// subgraphFile names a constructed subgraph in the store.
func subgraphFile(i int) string { return fmt.Sprintf("subgraphs/%04d", i) }

// spillRunFile names one out-of-core run of a spilled partition. Run names
// are deterministic so a retried or resumed construction attempt overwrites
// rather than accumulates; ordinals past the scan's run count are merge
// intermediates, never journalled, swept as orphans.
func spillRunFile(part, run int) string { return fmt.Sprintf("spill/%04d/run-%04d", part, run) }

// SuperkmerFile and SubgraphFile expose the store names of partition
// artifacts so fault plans (the chaos engine) can script IO faults against
// specific files without duplicating the naming scheme.
func SuperkmerFile(i int) string { return superkmerFile(i) }

// SubgraphFile is the exported counterpart of subgraphFile.
func SubgraphFile(i int) string { return subgraphFile(i) }

// SpillRunFile is the exported counterpart of spillRunFile.
func SpillRunFile(part, run int) string { return spillRunFile(part, run) }

// partitionSinks opens the sink for one superkmer partition's encoded file.
type partitionSinks func(i int) (io.WriteCloser, error)

// storeSinks writes every partition into the store.
func storeSinks(st store.PartitionStore) partitionSinks {
	return func(i int) (io.WriteCloser, error) { return st.Create(superkmerFile(i)) }
}

// rebuildSinks writes only the target partitions, discarding the rest. A
// selective Step 1 rebuild still re-scans the full input — MSP routing needs
// every read — but only the partitions being rebuilt touch the store, and
// because a partition's record order equals the global read order, the
// rewritten files are byte-identical to the originals.
func rebuildSinks(st store.PartitionStore, targets map[int]bool) partitionSinks {
	return func(i int) (io.WriteCloser, error) {
		if targets[i] {
			return st.Create(superkmerFile(i))
		}
		return nopSink{}, nil
	}
}

type nopSink struct{}

func (nopSink) Write(p []byte) (int, error) { return len(p), nil }
func (nopSink) Close() error                { return nil }

// processors instantiates the configured compute devices. Index 0 is the
// CPU when enabled, followed by the GPUs. A configured ProcWrap (fault
// injection) is applied last, so each step scripts its faults on a fresh
// device slice.
func processors(cfg Config) []device.Processor {
	procs := make([]device.Processor, 0, cfg.NumProcessors())
	backend := cfg.tableBackend()
	if cfg.UseCPU {
		procs = append(procs, &device.CPU{
			Threads:    cfg.CPUThreads,
			Cal:        cfg.Calibration,
			Partitions: cfg.NumPartitions,
			Table:      backend,
		})
	}
	for g := 0; g < cfg.NumGPUs; g++ {
		procs = append(procs, &device.GPU{
			Index:       g,
			Cal:         cfg.Calibration,
			MemoryBytes: cfg.GPUMemoryBytes,
			Partitions:  cfg.NumPartitions,
			Table:       backend,
		})
	}
	if cfg.ProcWrap != nil {
		procs = cfg.ProcWrap(procs)
	}
	return procs
}

// applyReport folds a resilient run's fault accounting into the step's
// stats: counters, quarantined processor names, the virtual backoff
// (which is charged into the step's elapsed time), and the live run's
// partition attribution.
func applyReport(st *StepStats, rep pipeline.Report, procs []device.Processor) {
	st.Retries = rep.Retries
	st.Requeues = rep.Requeues
	st.BackoffSeconds = rep.BackoffSeconds
	st.Seconds += rep.BackoffSeconds
	st.WatchdogKills = rep.WatchdogKills
	st.CanceledAttempts = rep.CanceledAttempts
	st.Admissions = rep.Admission.Admissions
	st.AdmissionWaits = rep.Admission.Waits
	st.AdmissionWaitSeconds = rep.Admission.WaitSeconds
	st.PeakAdmittedBytes = rep.Admission.PeakBytes
	st.AdmissionBalanceBytes = rep.Admission.BalanceBytes
	for _, w := range rep.Quarantined {
		st.Quarantined = append(st.Quarantined, procs[w].Name())
	}
	st.MeasuredProcessorParts = make([]int, len(procs))
	for _, w := range rep.Assignment {
		// -1 marks a never-produced partition; attributing it to anyone
		// (worker 0, historically) would corrupt the workload accounting.
		if w >= 0 && w < len(procs) {
			st.MeasuredProcessorParts[w]++
		}
	}
}

// procNames lists the processors' display names in pipeline-worker order.
func procNames(procs []device.Processor) []string {
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name()
	}
	return names
}

// stepRecorder returns the pipeline span recorder for one step, or nil when
// tracing is off. (A typed-nil *obs.StepTracer must never be passed as the
// interface, hence the explicit nil return.)
func stepRecorder(cfg Config, step string, procs []device.Processor) pipeline.SpanRecorder {
	if cfg.Trace == nil {
		return nil
	}
	return &obs.StepTracer{T: cfg.Trace, Step: step, Workers: procNames(procs)}
}

// step1Work records one input chunk's measured work for virtual timing.
type step1Work struct {
	reads        int64
	bases        int64
	fastqBytes   int64
	superkmers   int64
	encodedBytes int64
}

// chunkSource yields Step 1's input chunks in order and returns
// pipeline.ErrEndOfInput after the last one.
type chunkSource func() ([]fastq.Read, error)

// sliceChunks serves in-memory reads in the fixed chunking Build has always
// used, so the paper-figure schedules see the same chunks.
func sliceChunks(reads []fastq.Read, n int) chunkSource {
	chunks := fastq.PartitionReads(reads, n)
	return func() ([]fastq.Read, error) {
		if len(chunks) == 0 {
			return nil, pipeline.ErrEndOfInput
		}
		chunk := chunks[0]
		chunks = chunks[1:]
		return chunk, nil
	}
}

// errInputRead marks a chunk source failure. It is never retried: the
// source is a stream, and a second read would skip the failed records.
var errInputRead = errors.New("core: reading input")

// step1Output is one scanned chunk plus the measurements of its reads,
// which the pipeline drops once the chunk is produced.
type step1Output struct {
	device.Step1Output
	reads, fastqBytes int64
}

// step1Result is Step 1's outcome.
type step1Result struct {
	parts []msp.PartitionStats
	// infos are the finalised partition files' footprints (size and
	// record CRC) for the build manifest.
	infos []msp.FileInfo
	stats StepStats
	// reads counts the reads consumed, -1 when Step 1 was resumed.
	reads int64
	// maxChunkBytes is the largest chunk's FASTQ footprint, the Step 1
	// term of the peak-memory estimate.
	maxChunkBytes int64
}

// runStep1 executes the MSP graph partitioning step: input chunks from next
// flow through the work-stealing pipeline, each consumed by a processor
// that scans it into superkmers, and the output stage routes superkmers
// into encoded partition files via the sinks.
func runStep1(ctx context.Context, next chunkSource, cfg Config, sinks partitionSinks) (step1Result, error) {
	writer, err := msp.NewPartitionWriter(cfg.K, cfg.NumPartitions, sinks)
	if err != nil {
		return step1Result{}, err
	}

	procs := processors(cfg)
	workers := make([]pipeline.Worker[[]fastq.Read, step1Output], len(procs))
	for i, p := range procs {
		p := p
		workers[i] = func(ctx context.Context, chunk []fastq.Read) (step1Output, error) {
			out, err := p.Step1(ctx, chunk, cfg.K, cfg.P)
			return step1Output{out, int64(len(chunk)), fastq.ApproxFASTQBytes(chunk)}, err
		}
	}

	// A source error ends the input: the failed chunk fails its slot and
	// every later read reports the end.
	failed := false
	read := func(int) ([]fastq.Read, error) {
		if failed {
			return nil, pipeline.ErrEndOfInput
		}
		chunk, err := next()
		if err != nil && !errors.Is(err, pipeline.ErrEndOfInput) {
			failed = true
			return nil, fmt.Errorf("%w: %w", errInputRead, err)
		}
		return chunk, err
	}
	pol := cfg.resiliencePolicy()
	retryable := pol.Retryable
	pol.Retryable = func(err error) bool { return !errors.Is(err, errInputRead) && retryable(err) }

	// works holds one record per written chunk, in chunk order. A retried
	// write of the same chunk resumes after the superkmers already routed
	// instead of double-routing them.
	var works []step1Work
	last := -1
	write := func(i int, out step1Output) error {
		if i != last {
			last = i
			works = append(works, step1Work{reads: out.reads, bases: out.Bases, fastqBytes: out.fastqBytes})
		}
		w := &works[len(works)-1]
		// The batch is routed by the scan-time partition stamps, so this
		// sequential stage does no minimizer hashing.
		n, bytes, err := writer.WriteBatch(out.Superkmers[w.superkmers:])
		w.superkmers += int64(n)
		w.encodedBytes += bytes
		return err
	}

	report, err := pipeline.Run(ctx, read, workers, write, pol, stepRecorder(cfg, "step1", procs))
	if err != nil {
		writer.Close()
		return step1Result{}, err
	}
	if err := writer.Close(); err != nil {
		return step1Result{}, err
	}

	stats, err := scheduleStep1(works, cfg, procs)
	if err != nil {
		return step1Result{}, err
	}
	applyReport(&stats, report, procs)
	res := step1Result{parts: writer.Stats(), infos: writer.FileInfos(), stats: stats}
	for _, w := range works {
		res.reads += w.reads
		res.maxChunkBytes = max(res.maxChunkBytes, w.fastqBytes)
	}
	return res, nil
}

// step1Cost returns processor p's virtual seconds for one chunk.
func step1Cost(cfg Config, p device.Processor, w step1Work) float64 {
	if p.Kind() == device.KindCPU {
		return cfg.Calibration.CPUStep1Seconds(w.bases, cpuThreadsOf(p))
	}
	transfer := device.Step1TransferBytes(w.bases, w.superkmers)
	return cfg.Calibration.GPUStep1Seconds(w.bases, transfer)
}

func cpuThreadsOf(p device.Processor) int {
	if c, ok := p.(*device.CPU); ok {
		return c.Threads
	}
	return 1
}

// scheduleStep1 computes the step's virtual-time schedule from the
// measured chunk work.
func scheduleStep1(works []step1Work, cfg Config, procs []device.Processor) (StepStats, error) {
	parts := make([]pipeline.Partition, len(works))
	solo := make([]float64, len(procs))
	for i, w := range works {
		costs := make([]float64, len(procs))
		for p, proc := range procs {
			costs[p] = step1Cost(cfg, proc, w)
			solo[p] += costs[p]
		}
		parts[i] = pipeline.Partition{
			InputSeconds:   cfg.Calibration.ReadSeconds(cfg.Medium, w.fastqBytes),
			OutputSeconds:  cfg.Calibration.WriteSeconds(cfg.Medium, w.encodedBytes),
			ComputeSeconds: costs,
			WorkUnits:      w.reads,
		}
	}
	sched, err := pipeline.Simulate(parts, len(procs))
	if err != nil {
		return StepStats{}, err
	}
	if cfg.Trace != nil {
		obs.TraceSchedule(cfg.Trace, "step1", procNames(procs), sched)
	}
	return stepStatsFromSchedule(sched, procs, solo), nil
}

// stepStatsFromSchedule converts a pipeline schedule into StepStats,
// evaluating the paper's performance model (Eq. 1–2) on the scheduled stage
// totals so the run summary can report predicted vs measured step times.
func stepStatsFromSchedule(sched pipeline.Schedule, procs []device.Processor, solo []float64) StepStats {
	names := procNames(procs)
	var cpuBusy, gpuBusy float64
	for i, p := range procs {
		if i >= len(sched.ProcBusy) {
			break
		}
		if p.Kind() == device.KindCPU {
			cpuBusy += sched.ProcBusy[i]
		} else if sched.ProcBusy[i] > gpuBusy {
			// Co-processing GPUs run in parallel; Eq. 1's T_GPU is the
			// slowest device, not the sum.
			gpuBusy = sched.ProcBusy[i]
		}
	}
	predicted := costmodel.EstimateStepSeconds(costmodel.StepTimes{
		CPU:        cpuBusy,
		GPU:        gpuBusy,
		Input:      sched.SumInput,
		Output:     sched.SumOutput,
		Partitions: len(sched.Assignment),
	})
	return StepStats{
		Seconds:                      sched.Elapsed,
		NonPipelinedSeconds:          sched.NonPipelinedElapsed,
		InputSeconds:                 sched.SumInput,
		OutputSeconds:                sched.SumOutput,
		ProcessorNames:               names,
		ProcessorBusy:                sched.ProcBusy,
		ProcessorUnits:               sched.ProcUnits,
		ProcessorParts:               sched.ProcParts,
		SoloSeconds:                  solo,
		Partitions:                   len(sched.Assignment),
		PredictedSeconds:             predicted,
		PredictedCoprocessingSeconds: coprocessingPrediction(procs, solo),
	}
}

// coprocessingPrediction evaluates Eq. 2 — 1/(1/T_onlyCPU + N_GPU/T_1GPU) —
// from the per-processor solo times, or 0 when the device mix doesn't
// include both a CPU and at least one GPU.
func coprocessingPrediction(procs []device.Processor, solo []float64) float64 {
	var tCPU, tGPU float64
	numGPUs := 0
	for i, p := range procs {
		if i >= len(solo) {
			break
		}
		if p.Kind() == device.KindCPU {
			if tCPU == 0 {
				tCPU = solo[i]
			}
		} else {
			numGPUs++
			if tGPU == 0 {
				tGPU = solo[i]
			}
		}
	}
	if tCPU <= 0 || tGPU <= 0 || numGPUs == 0 {
		return 0
	}
	return costmodel.EstimateCoprocessingSeconds(tCPU, tGPU, numGPUs)
}
