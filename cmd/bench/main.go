// Command bench measures the hot-path overhaul — rolling canonicalization,
// the zero-allocation scanner, kmer-weighted Step 2 claiming, and sharded
// table counters — against emulations of the pre-overhaul implementations,
// plus the in-core vs out-of-core Step 2 head-to-head, and writes the
// results to a JSON report (BENCH_hotpath.json at the repo root).
// Regenerate with:
//
//	go run ./cmd/bench -out BENCH_hotpath.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parahash/internal/costmodel"
	"parahash/internal/device"
	"parahash/internal/dna"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/iosim"
	"parahash/internal/msp"
)

// Report is the JSON schema of BENCH_hotpath.json.
type Report struct {
	Schema string `json:"schema"`
	// HostCPUs records the measuring machine's core count: the scheduling
	// and counter-sharding wall-clock deltas only manifest with real
	// parallelism, so single-core hosts should expect ~1x there while the
	// imbalance figures still capture the scheduling improvement.
	HostCPUs int `json:"host_cpus"`
	// GOMAXPROCS is the scheduler-processor count the measurements actually
	// ran under. Worker counts are clamped to it (a goroutine beyond the
	// processor count measures scheduler churn, not parallel insertion), so
	// every multi-worker figure in this report is backed by at most this
	// much real concurrency.
	GOMAXPROCS       int                  `json:"gomaxprocs"`
	Canonicalization CanonicalizationPart `json:"canonicalization"`
	Scanner          ScannerPart          `json:"scanner"`
	Step2            Step2Part            `json:"step2"`
	Counters         CountersPart         `json:"counters"`
	TableBackends    TableBackendsPart    `json:"table_backends"`
	OutOfCore        OutOfCorePart        `json:"out_of_core"`
}

// CanonicalizationPart compares per-kmer canonical orientation costs: the
// pre-overhaul form re-derived each k-mer's reverse complement with an
// O(k) base loop; the overhauled form maintains it as a rolling window.
type CanonicalizationPart struct {
	K               int     `json:"k"`
	BeforeNsPerKmer float64 `json:"before_ns_per_kmer"`
	AfterNsPerKmer  float64 `json:"after_ns_per_kmer"`
	Speedup         float64 `json:"speedup"`
	// The reverse-complement primitive alone: O(k) loop vs bit tricks.
	RCBeforeNs float64 `json:"rc_before_ns"`
	RCAfterNs  float64 `json:"rc_after_ns"`
	RCSpeedup  float64 `json:"rc_speedup"`
}

// ScannerPart reports the warmed Step 1 scanner's per-base cost and
// allocation count per read (the overhaul's target is 0).
type ScannerPart struct {
	NsPerBase     float64 `json:"ns_per_base"`
	AllocsPerRead float64 `json:"allocs_per_read"`
}

// Step2Part compares the full Step 2 kernel — insert, collect, sort — as
// the seed ran it (index-striped superkmer split, sequential vertex sort)
// against the overhauled form (kmer-weighted chunk claiming, parallel
// radix sort) on a skewed partition.
type Step2Part struct {
	RequestedWorkers int `json:"requested_workers"`
	EffectiveWorkers int `json:"effective_workers"`
	// Degraded flags a clamped run: fewer scheduler processors than
	// requested workers, so the parallel figures understate what a machine
	// with that many cores would measure.
	Degraded bool `json:"degraded"`
	// Authoritative marks the before/after comparison as trustworthy. On a
	// degraded host the comparison is skipped entirely (before_seconds and
	// speedup are zero) rather than recorded: a clamped run once produced a
	// 0.83x "regression" that was scheduler starvation, not the code.
	Authoritative bool    `json:"authoritative"`
	Superkmers    int     `json:"superkmers"`
	Kmers         int64   `json:"kmers"`
	Distinct      int     `json:"distinct"`
	BeforeSeconds float64 `json:"before_seconds"`
	AfterSeconds  float64 `json:"after_seconds"`
	Speedup       float64 `json:"speedup"`
	// The max/mean per-worker k-mer weight of each split — the makespan
	// ratio an idealised machine with Workers real cores would see. The
	// striped figure is the static assignment's; the chunked figure
	// simulates claim-when-free list scheduling of the weighted chunks.
	StripedImbalance float64 `json:"striped_imbalance"`
	ChunkedImbalance float64 `json:"chunked_imbalance"`
}

// CountersPart compares parallel inserts with every worker funnelling
// through one metrics shard (the pre-overhaul shared atomics) against
// per-worker shards.
type CountersPart struct {
	RequestedWorkers int  `json:"requested_workers"`
	EffectiveWorkers int  `json:"effective_workers"`
	Degraded         bool `json:"degraded"`
	// Authoritative is false when the host clamped the workers or routed
	// every handle through one shard: the variants still measure, but the
	// speedup is not a statement about the sharding change.
	Authoritative bool `json:"authoritative"`
	// SingleProcFastPath records that GOMAXPROCS=1 routed every handle to
	// one shard (the uncontended fast path), making the two variants
	// physically identical — expect speedup ~1.0, not the old 0.88 penalty.
	SingleProcFastPath bool    `json:"single_proc_fast_path"`
	SharedNsPerEdge    float64 `json:"shared_shard_ns_per_edge"`
	ShardedNsPerEdge   float64 `json:"sharded_ns_per_edge"`
	Speedup            float64 `json:"speedup"`
}

// TableBackendsPart is the multi-worker head-to-head across the KmerTable
// backends: the same duplicate-heavy edge workload inserted by 1/2/4/8
// workers into each backend. Worker counts are clamped to GOMAXPROCS and
// every run records what it actually got, so single-core reruns stay honest
// (degraded=true) instead of reporting fictional parallelism.
type TableBackendsPart struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	HostCPUs   int `json:"host_cpus"`
	// Oversubscribed flags GOMAXPROCS raised above the physical core count:
	// the workers are real concurrent goroutines but time-share cores, so
	// contention effects are visible while absolute scaling is pessimistic.
	Oversubscribed bool         `json:"oversubscribed"`
	Edges          int          `json:"edges"`
	Distinct       int          `json:"distinct"`
	Runs           []BackendRun `json:"runs"`
}

// BackendRun is one backend × worker-count measurement.
type BackendRun struct {
	Backend          string `json:"backend"`
	RequestedWorkers int    `json:"requested_workers"`
	EffectiveWorkers int    `json:"effective_workers"`
	Degraded         bool   `json:"degraded"`
	// NsPerEdge is wall-clock nanoseconds per inserted edge (best of three
	// alternated rounds).
	NsPerEdge float64 `json:"ns_per_edge"`
	// ProbesPerEdge is the backend's mean probe-walk length per access.
	ProbesPerEdge float64 `json:"probes_per_edge"`
	// MaxMeanImbalance is the max/mean per-worker busy time of the best
	// round — 1.0 is perfect balance; the sharded backend's value shows
	// whether hash-partitioned routing skews worker load.
	MaxMeanImbalance float64 `json:"max_mean_imbalance"`
}

// OutOfCorePart is the in-core vs out-of-core Step 2 head-to-head on the
// same skewed partition: a hash-table construction against the sort-merge
// spill path under a run buffer far smaller than the table it replaces.
// Both run single-threaded so the figure is algorithm overhead, not
// parallelism. The out-of-core path is expected to cost more per k-mer —
// the report records how much RAM that price buys back.
type OutOfCorePart struct {
	K          int   `json:"k"`
	Superkmers int   `json:"superkmers"`
	Kmers      int64 `json:"kmers"`
	Distinct   int   `json:"distinct"`
	// TableBytes is the in-core table allocation the spill path avoids;
	// RunBufferBytes is the bounded residency it holds instead.
	TableBytes     int64 `json:"table_bytes"`
	RunBufferBytes int64 `json:"run_buffer_bytes"`
	SpillRuns      int64 `json:"spill_runs"`
	SpilledBytes   int64 `json:"spilled_bytes"`
	MergePasses    int64 `json:"merge_passes"`
	// Identical records that the two paths produced the same sorted graph —
	// the numbers are only comparable if the outputs are.
	Identical          bool    `json:"identical"`
	InCoreNsPerKmer    float64 `json:"in_core_ns_per_kmer"`
	OutOfCoreNsPerKmer float64 `json:"out_of_core_ns_per_kmer"`
	// Overhead is out-of-core / in-core time (>= 1 in the expected case).
	Overhead float64 `json:"overhead"`
}

// effectiveWorkers clamps a requested worker count to the scheduler
// processors actually available.
func effectiveWorkers(requested int) (effective int, degraded bool) {
	mp := runtime.GOMAXPROCS(0)
	if requested > mp {
		return mp, true
	}
	return requested, false
}

// config sizes the measurement; the test uses a tiny variant.
type config struct {
	minDur   time.Duration // per-measurement wall budget
	reads    int           // scanner/canonicalization read count
	readLen  int
	smallSks int // Step 2 skewed partition shape
	giantSks int
	giantLen int
	edges    int // counter benchmark edge count
}

func defaultConfig() config {
	return config{
		minDur:   300 * time.Millisecond,
		reads:    200,
		readLen:  151,
		smallSks: 2048,
		giantSks: 16,
		giantLen: 2000,
		edges:    1 << 17,
	}
}

// timeIt runs fn in batches until minDur has elapsed and returns the mean
// nanoseconds per call.
func timeIt(minDur time.Duration, fn func()) float64 {
	fn() // warm-up
	var n int64
	var elapsed time.Duration
	batch := 1
	for elapsed < minDur {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		elapsed += time.Since(start)
		n += int64(batch)
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(n)
}

func randomReads(rng *rand.Rand, n, l int) [][]dna.Base {
	reads := make([][]dna.Base, n)
	for i := range reads {
		r := make([]dna.Base, l)
		for j := range r {
			r[j] = dna.Base(rng.Intn(4))
		}
		reads[i] = r
	}
	return reads
}

func measureCanonicalization(cfg config) CanonicalizationPart {
	const k, p = 27, 11
	rng := rand.New(rand.NewSource(1))
	var sks []msp.Superkmer
	var kmers int64
	for _, r := range randomReads(rng, cfg.reads, cfg.readLen) {
		sks = msp.SuperkmersFromRead(sks, r, k, p)
	}
	for _, sk := range sks {
		kmers += int64(sk.NumKmers(k))
	}

	var sink int64
	// Before: the seed enumerator re-derived each k-mer's canonical form
	// with the O(k) reverse-complement loop.
	before := timeIt(cfg.minDur, func() {
		for _, sk := range sks {
			n := sk.NumKmers(k)
			km := dna.KmerFromBases(sk.Bases, k)
			for t := 0; t < n; t++ {
				if t > 0 {
					km = km.AppendBase(sk.Bases[t+k-1], k)
				}
				rc := km.ReverseComplementNaive(k)
				if rc.Less(km) {
					sink += int64(rc.Lo)
				} else {
					sink += int64(km.Lo)
				}
			}
		}
	}) / float64(kmers)
	after := timeIt(cfg.minDur, func() {
		for _, sk := range sks {
			msp.ForEachKmerEdge(sk, k, func(e msp.KmerEdge) { sink += int64(e.Canon.Lo) })
		}
	}) / float64(kmers)

	km := dna.KmerFromBases(randomReads(rng, 1, k)[0], k)
	rcBefore := timeIt(cfg.minDur, func() { km = km.ReverseComplementNaive(k) })
	rcAfter := timeIt(cfg.minDur, func() { km = km.ReverseComplement(k) })
	_ = sink

	return CanonicalizationPart{
		K:               k,
		BeforeNsPerKmer: before,
		AfterNsPerKmer:  after,
		Speedup:         before / after,
		RCBeforeNs:      rcBefore,
		RCAfterNs:       rcAfter,
		RCSpeedup:       rcBefore / rcAfter,
	}
}

func measureScanner(cfg config) ScannerPart {
	const k, p = 27, 11
	rng := rand.New(rand.NewSource(2))
	reads := randomReads(rng, cfg.reads, cfg.readLen)
	sc := &msp.Scanner{K: k, P: p, NumPartitions: 512}
	dst := make([]msp.Superkmer, 0, 256)
	for _, r := range reads {
		dst = sc.Superkmers(dst[:0], r) // warm the scratch
	}
	bases := int64(cfg.reads) * int64(cfg.readLen)
	ns := timeIt(cfg.minDur, func() {
		for _, r := range reads {
			dst = sc.Superkmers(dst[:0], r)
		}
	}) / float64(bases)
	allocs := testing.AllocsPerRun(100, func() {
		dst = sc.Superkmers(dst[:0], reads[0])
	})
	return ScannerPart{NsPerBase: ns, AllocsPerRead: allocs}
}

// skewedPartition builds a partition whose k-mer mass concentrates in a few
// giant superkmers (low-complexity regions produce exactly this shape) so
// that a split balancing record counts, not k-mer counts, idles workers.
func skewedPartition(cfg config, k int) ([]msp.Superkmer, int64) {
	rng := rand.New(rand.NewSource(3))
	sks := make([]msp.Superkmer, 0, cfg.smallSks+cfg.giantSks)
	mk := func(l int) msp.Superkmer {
		b := make([]dna.Base, l)
		for j := range b {
			b[j] = dna.Base(rng.Intn(4))
		}
		return msp.Superkmer{Bases: b, Minimizer: rng.Uint64()}
	}
	for i := 0; i < cfg.smallSks; i++ {
		sks = append(sks, mk(k+rng.Intn(8)))
	}
	for i := 0; i < cfg.giantSks; i++ {
		sks = append(sks, mk(cfg.giantLen+k-1))
	}
	rng.Shuffle(len(sks), func(i, j int) { sks[i], sks[j] = sks[j], sks[i] })
	var kmers int64
	for _, sk := range sks {
		kmers += int64(sk.NumKmers(k))
	}
	return sks, kmers
}

func insertRange(tab *hashtable.Table, worker int, sks []msp.Superkmer, k int) error {
	ins := tab.Inserter(worker)
	var firstErr error
	for _, sk := range sks {
		msp.ForEachKmerEdge(sk, k, func(e msp.KmerEdge) {
			if err := ins.InsertEdge(e); err != nil && firstErr == nil {
				firstErr = err
			}
		})
		if firstErr != nil {
			return firstErr
		}
	}
	return firstErr
}

func measureStep2(cfg config) (Step2Part, error) {
	const k = 27
	const requestedWorkers = 8
	workers, degraded := effectiveWorkers(requestedWorkers)
	sks, kmers := skewedPartition(cfg, k)
	slots := int(float64(kmers) / 0.65) // random kmers are ~all distinct; size for load factor directly
	tab, err := hashtable.New(k, slots)
	if err != nil {
		return Step2Part{}, err
	}
	var insErr atomic.Value
	vbuf := make([]graph.Vertex, 0, slots)
	collect := func() []graph.Vertex {
		vs := vbuf[:0]
		tab.ForEach(func(e hashtable.Entry) {
			vs = append(vs, graph.Vertex{Kmer: e.Kmer, Counts: e.Counts})
		})
		return vs
	}
	// The parallel sort pays for itself only with real cores behind it —
	// the same clamp the Step 2 kernel applies.
	sortWorkers := workers
	if mp := runtime.GOMAXPROCS(0); sortWorkers > mp {
		sortWorkers = mp
	}

	// Before: index-striped split — worker w processes records w, w+T,
	// w+2T, ... — followed by the sequential vertex sort.
	runBefore := func() float64 {
		return timeIt(cfg.minDur, func() {
			tab.Reset()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ins := tab.Inserter(w)
					for i := w; i < len(sks); i += workers {
						msp.ForEachKmerEdge(sks[i], k, func(e msp.KmerEdge) {
							if err := ins.InsertEdge(e); err != nil {
								insErr.Store(err)
							}
						})
					}
				}(w)
			}
			wg.Wait()
			g := &graph.Subgraph{K: k, Vertices: collect()}
			g.Sort()
		})
	}

	// After: kmer-weighted chunks claimed from an atomic cursor plus the
	// parallel radix sort (the device.CPU Step 2 strategy).
	grain := kmers / int64(workers*8)
	if grain < 1 {
		grain = 1
	}
	var ends []int
	var acc int64
	for i := range sks {
		acc += int64(sks[i].NumKmers(k))
		if acc >= grain {
			ends = append(ends, i+1)
			acc = 0
		}
	}
	if n := len(sks); n > 0 && (len(ends) == 0 || ends[len(ends)-1] != n) {
		ends = append(ends, n)
	}
	runAfter := func() float64 {
		return timeIt(cfg.minDur, func() {
			tab.Reset()
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						ci := int(cursor.Add(1)) - 1
						if ci >= len(ends) {
							return
						}
						lo := 0
						if ci > 0 {
							lo = ends[ci-1]
						}
						if err := insertRange(tab, w, sks[lo:ends[ci]], k); err != nil {
							insErr.Store(err)
						}
					}
				}(w)
			}
			wg.Wait()
			g := &graph.Subgraph{K: k, Vertices: collect()}
			g.SortParallel(sortWorkers)
		})
	}
	// Alternate the two variants and keep each one's best run, so drift on
	// a shared host cannot bias the comparison. On a degraded host the
	// before-variant is not run at all: a clamped comparison reads like a
	// regression (a recorded 0.83x was pure scheduler starvation), so the
	// report carries only the current kernel's figure, unflattered and
	// unflattering to nothing.
	before, after := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		if !degraded {
			before = math.Min(before, runBefore())
		}
		after = math.Min(after, runAfter())
	}
	if err, _ := insErr.Load().(error); err != nil {
		return Step2Part{}, err
	}
	part := Step2Part{
		RequestedWorkers: requestedWorkers,
		EffectiveWorkers: workers,
		Degraded:         degraded,
		Authoritative:    !degraded,
		Superkmers:       len(sks),
		Kmers:            kmers,
		Distinct:         tab.Len(),
		AfterSeconds:     after / 1e9,
		StripedImbalance: stripedImbalance(sks, k, workers),
		ChunkedImbalance: chunkedImbalance(sks, ends, k, workers),
	}
	if !degraded {
		part.BeforeSeconds = before / 1e9
		part.Speedup = before / after
	}
	return part, nil
}

// stripedImbalance returns max/mean per-worker k-mer weight under the
// former static index-striped split.
func stripedImbalance(sks []msp.Superkmer, k, workers int) float64 {
	loads := make([]int64, workers)
	for i := range sks {
		loads[i%workers] += int64(sks[i].NumKmers(k))
	}
	return maxMean(loads)
}

// chunkedImbalance returns max/mean per-worker k-mer weight when the
// weighted chunks are claimed in order by whichever worker frees first
// (greedy list scheduling — what the atomic cursor realises with equal-
// speed workers).
func chunkedImbalance(sks []msp.Superkmer, ends []int, k, workers int) float64 {
	loads := make([]int64, workers)
	lo := 0
	for _, end := range ends {
		var w int64
		for _, sk := range sks[lo:end] {
			w += int64(sk.NumKmers(k))
		}
		lo = end
		min := 0
		for i := 1; i < workers; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += w
	}
	return maxMean(loads)
}

func maxMean(loads []int64) float64 {
	var max, sum int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(loads)) / float64(sum)
}

func measureCounters(cfg config) (CountersPart, error) {
	const k = 27
	const requestedWorkers = 8
	workers, degraded := effectiveWorkers(requestedWorkers)
	rng := rand.New(rand.NewSource(4))
	pool := make([]dna.Kmer, 1<<14)
	for i := range pool {
		b := make([]dna.Base, k)
		for j := range b {
			b[j] = dna.Base(rng.Intn(4))
		}
		pool[i], _ = dna.KmerFromBases(b, k).Canonical(k)
	}
	edges := make([]msp.KmerEdge, cfg.edges)
	for i := range edges {
		edges[i] = msp.KmerEdge{
			Canon: pool[rng.Intn(len(pool))],
			Left:  int8(rng.Intn(4)),
			Right: int8(rng.Intn(4)),
		}
	}
	tab, err := hashtable.New(k, int(float64(len(edges))/0.65))
	if err != nil {
		return CountersPart{}, err
	}
	var insErr atomic.Value
	run := func(sharded bool) float64 {
		return timeIt(cfg.minDur, func() {
			tab.Reset()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					shard := 0
					if sharded {
						shard = w
					}
					ins := tab.Inserter(shard)
					for i := w; i < len(edges); i += workers {
						if err := ins.InsertEdge(edges[i]); err != nil {
							insErr.Store(err)
						}
					}
				}(w)
			}
			wg.Wait()
		}) / float64(len(edges))
	}
	// Alternate variants, keep each one's best run (same rationale as the
	// Step 2 comparison).
	shared, sharded := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		shared = math.Min(shared, run(false))
		sharded = math.Min(sharded, run(true))
	}
	if err, _ := insErr.Load().(error); err != nil {
		return CountersPart{}, err
	}
	fastPath := runtime.GOMAXPROCS(0) == 1
	return CountersPart{
		RequestedWorkers:   requestedWorkers,
		EffectiveWorkers:   workers,
		Degraded:           degraded,
		Authoritative:      !degraded && !fastPath,
		SingleProcFastPath: fastPath,
		SharedNsPerEdge:    shared,
		ShardedNsPerEdge:   sharded,
		Speedup:            shared / sharded,
	}, nil
}

// backendEdges builds the duplicate-heavy canonical edge workload shared by
// every backend run, so the head-to-head compares tables, not inputs.
func backendEdges(cfg config, k int) []msp.KmerEdge {
	rng := rand.New(rand.NewSource(5))
	pool := make([]dna.Kmer, 1<<14)
	for i := range pool {
		b := make([]dna.Base, k)
		for j := range b {
			b[j] = dna.Base(rng.Intn(4))
		}
		pool[i], _ = dna.KmerFromBases(b, k).Canonical(k)
	}
	edges := make([]msp.KmerEdge, cfg.edges)
	for i := range edges {
		edges[i] = msp.KmerEdge{
			Canon: pool[rng.Intn(len(pool))],
			Left:  int8(rng.Intn(4)),
			Right: int8(rng.Intn(4)),
		}
	}
	return edges
}

// runBackendOnce inserts every edge with the given worker count and returns
// the wall time plus each worker's busy time.
func runBackendOnce(tab hashtable.KmerTable, edges []msp.KmerEdge, workers int, insErr *atomic.Value) (time.Duration, []time.Duration) {
	tab.Reset()
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ins := tab.Inserter(w)
			t0 := time.Now()
			for i := w; i < len(edges); i += workers {
				if err := ins.InsertEdge(edges[i]); err != nil {
					insErr.Store(err)
				}
			}
			busy[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	return time.Since(start), busy
}

// measureTableBackends runs the same edge workload through every KmerTable
// backend at 1/2/4/8 requested workers, recording per-edge wall time, probe
// walks and worker busy-time imbalance for each combination.
func measureTableBackends(cfg config) (TableBackendsPart, error) {
	const k = 27
	edges := backendEdges(cfg, k)
	slots := int(float64(len(edges)) / 0.65)
	part := TableBackendsPart{
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		HostCPUs:       runtime.NumCPU(),
		Oversubscribed: runtime.GOMAXPROCS(0) > runtime.NumCPU(),
		Edges:          len(edges),
	}
	for _, b := range hashtable.Backends() {
		tab, err := hashtable.NewBackend(b, k, slots)
		if err != nil {
			return part, err
		}
		for _, requested := range []int{1, 2, 4, 8} {
			workers, degraded := effectiveWorkers(requested)
			var insErr atomic.Value
			best := BackendRun{
				Backend:          string(b),
				RequestedWorkers: requested,
				EffectiveWorkers: workers,
				Degraded:         degraded,
				NsPerEdge:        math.Inf(1),
			}
			// Repeat full passes until the per-measurement budget is spent,
			// keeping the best round (same drift defence as the other parts).
			var elapsed time.Duration
			for elapsed < cfg.minDur {
				wall, busy := runBackendOnce(tab, edges, workers, &insErr)
				elapsed += wall
				if ns := float64(wall.Nanoseconds()) / float64(len(edges)); ns < best.NsPerEdge {
					best.NsPerEdge = ns
					best.MaxMeanImbalance = maxMeanDur(busy)
				}
			}
			if err, _ := insErr.Load().(error); err != nil {
				return part, err
			}
			m := tab.Metrics().Snapshot()
			if accesses := m.Inserts + m.Updates; accesses > 0 {
				best.ProbesPerEdge = float64(m.Probes) / float64(accesses)
			}
			part.Distinct = tab.Len()
			part.Runs = append(part.Runs, best)
		}
	}
	return part, nil
}

// measureOutOfCore runs the same skewed partition through the in-core
// hash-table kernel and the sort-merge spill path, best of three alternated
// rounds each. The spill path gets a run buffer sized at 1/16 of the table
// it replaces (floored at 4 KiB) so the measurement reflects a genuinely
// memory-constrained configuration with real merge fan-in, not a buffer
// that happens to hold the whole partition.
func measureOutOfCore(cfg config) (OutOfCorePart, error) {
	const k = 27
	sks, kmers := skewedPartition(cfg, k)
	slots := int(float64(kmers) / 0.65)
	tableBytes := hashtable.MemoryBytesFor(slots)
	bufferBytes := tableBytes / 16
	if bufferBytes < 4<<10 {
		bufferBytes = 4 << 10
	}

	tab, err := hashtable.New(k, slots)
	if err != nil {
		return OutOfCorePart{}, err
	}
	runInCore := func() (*graph.Subgraph, time.Duration, error) {
		start := time.Now()
		tab.Reset()
		if err := insertRange(tab, 0, sks, k); err != nil {
			return nil, 0, err
		}
		vs := make([]graph.Vertex, 0, tab.Len())
		tab.ForEach(func(e hashtable.Entry) {
			vs = append(vs, graph.Vertex{Kmer: e.Kmer, Counts: e.Counts})
		})
		g := &graph.Subgraph{K: k, Vertices: vs}
		g.Sort()
		return g, time.Since(start), nil
	}
	runOutOfCore := func() (*graph.Subgraph, device.Step2Output, time.Duration, error) {
		// A fresh store each round: runs are the round's scratch, and stale
		// intermediates from a previous round must not alias.
		ecfg := device.ExternalConfig{
			K:           k,
			BufferBytes: bufferBytes,
			SortWorkers: 1,
			Store:       iosim.NewStore(costmodel.MediumMemCached),
			RunName:     func(run int) string { return fmt.Sprintf("spill/0000/run-%04d", run) },
			Cal:         costmodel.DefaultCalibration(),
			Threads:     1,
		}
		start := time.Now()
		out, _, passes, err := device.ExternalStep2(context.Background(), sks, ecfg)
		if err != nil {
			return nil, out, 0, err
		}
		out.MergePasses = passes
		return out.Graph, out, time.Since(start), nil
	}

	part := OutOfCorePart{
		K:              k,
		Superkmers:     len(sks),
		Kmers:          kmers,
		TableBytes:     tableBytes,
		RunBufferBytes: bufferBytes,
	}
	inBest, outBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var inGraph, outGraph *graph.Subgraph
	for round := 0; round < 3; round++ {
		g, d, err := runInCore()
		if err != nil {
			return part, err
		}
		if d < inBest {
			inBest = d
		}
		inGraph = g
		og, out, d, err := runOutOfCore()
		if err != nil {
			return part, err
		}
		if d < outBest {
			outBest = d
		}
		outGraph = og
		part.SpillRuns = out.SpillRuns
		part.SpilledBytes = out.SpillBytes
		part.MergePasses = out.MergePasses
		part.Distinct = int(out.Distinct)
	}
	part.Identical = outGraph.Equal(inGraph)
	if !part.Identical {
		return part, fmt.Errorf("out-of-core graph differs from in-core (%d vs %d vertices)",
			outGraph.NumVertices(), inGraph.NumVertices())
	}
	part.InCoreNsPerKmer = float64(inBest.Nanoseconds()) / float64(kmers)
	part.OutOfCoreNsPerKmer = float64(outBest.Nanoseconds()) / float64(kmers)
	part.Overhead = part.OutOfCoreNsPerKmer / part.InCoreNsPerKmer
	return part, nil
}

func maxMeanDur(busy []time.Duration) float64 {
	loads := make([]int64, len(busy))
	for i, d := range busy {
		loads[i] = d.Nanoseconds()
	}
	return maxMean(loads)
}

func measureAll(cfg config) (Report, error) {
	rep := Report{
		Schema:     "parahash.bench_hotpath/v3",
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	rep.Canonicalization = measureCanonicalization(cfg)
	rep.Scanner = measureScanner(cfg)
	s2, err := measureStep2(cfg)
	if err != nil {
		return rep, err
	}
	rep.Step2 = s2
	ctr, err := measureCounters(cfg)
	if err != nil {
		return rep, err
	}
	rep.Counters = ctr
	tb, err := measureTableBackends(cfg)
	if err != nil {
		return rep, err
	}
	rep.TableBackends = tb
	oc, err := measureOutOfCore(cfg)
	if err != nil {
		return rep, err
	}
	rep.OutOfCore = oc
	return rep, nil
}

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "report output path")
	flag.Parse()
	rep, err := measureAll(defaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("canonicalization: %.1f -> %.1f ns/kmer (%.1fx); RC %.1f -> %.1f ns (%.1fx)\n",
		rep.Canonicalization.BeforeNsPerKmer, rep.Canonicalization.AfterNsPerKmer, rep.Canonicalization.Speedup,
		rep.Canonicalization.RCBeforeNs, rep.Canonicalization.RCAfterNs, rep.Canonicalization.RCSpeedup)
	fmt.Printf("scanner: %.2f ns/base, %.0f allocs/read\n", rep.Scanner.NsPerBase, rep.Scanner.AllocsPerRead)
	if rep.Step2.Authoritative {
		fmt.Printf("step2 kernel: %.4fs -> %.4fs (%.2fx); imbalance %.2f -> %.2f max/mean\n",
			rep.Step2.BeforeSeconds, rep.Step2.AfterSeconds, rep.Step2.Speedup,
			rep.Step2.StripedImbalance, rep.Step2.ChunkedImbalance)
	} else {
		fmt.Printf("step2 kernel: %.4fs (degraded host — before/after comparison skipped); imbalance %.2f -> %.2f max/mean\n",
			rep.Step2.AfterSeconds, rep.Step2.StripedImbalance, rep.Step2.ChunkedImbalance)
	}
	fmt.Printf("counters: %.1f -> %.1f ns/edge (%.2fx)\n",
		rep.Counters.SharedNsPerEdge, rep.Counters.ShardedNsPerEdge, rep.Counters.Speedup)
	tb := rep.TableBackends
	fmt.Printf("table backends (GOMAXPROCS=%d, host CPUs=%d, oversubscribed=%v):\n",
		tb.GOMAXPROCS, tb.HostCPUs, tb.Oversubscribed)
	for _, r := range tb.Runs {
		fmt.Printf("  %-14s workers %d/%d: %.1f ns/edge, %.2f probes/edge, %.2f max/mean",
			r.Backend, r.EffectiveWorkers, r.RequestedWorkers, r.NsPerEdge, r.ProbesPerEdge, r.MaxMeanImbalance)
		if r.Degraded {
			fmt.Print("  (degraded: clamped to GOMAXPROCS)")
		}
		fmt.Println()
	}
	oc := rep.OutOfCore
	fmt.Printf("out-of-core step2: %.1f -> %.1f ns/kmer (%.2fx overhead); %d runs, %d merge passes, table %d B vs buffer %d B\n",
		oc.InCoreNsPerKmer, oc.OutOfCoreNsPerKmer, oc.Overhead,
		oc.SpillRuns, oc.MergePasses, oc.TableBytes, oc.RunBufferBytes)
	fmt.Println("wrote", *out)
}
