package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parahash/internal/core"
	"parahash/internal/costmodel"
	"parahash/internal/device"
	"parahash/internal/dist"
	"parahash/internal/dna"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/iosim"
	"parahash/internal/msp"
	"parahash/internal/obs"
	"parahash/internal/store"
)

// CLI defaults the traced run mirrors: Property 1 table sizing, the
// reference table backend and the distributed lease duration.
const (
	cliLambda  = 2.0
	cliAlpha   = 0.65
	cliBackend = hashtable.BackendStateTransfer
	cliLeaseMS = 2000
	// maxTableResizes mirrors the CLI's bounded resize loop.
	maxTableResizes = 16
)

// mib converts bytes to MiB.
func mib(b int64) float64 { return float64(b) / (1 << 20) }

// traceCounts are the work counts a traced run must share with the CLI's
// parahash.metrics/v1 output for the same input.
type traceCounts struct {
	Superkmers, Kmers, Inserts, Updates, Distinct int64
	SpillRuns, MergePasses, LeaseGrants           int64
}

// cliCounts extracts the same counts from the CLI's metrics.
func cliCounts(m *obs.BuildMetrics) traceCounts {
	c := traceCounts{
		Superkmers:  m.MSP.Superkmers,
		Kmers:       m.MSP.Kmers,
		Inserts:     m.HashTable.Inserts,
		Updates:     m.HashTable.Updates,
		Distinct:    m.Totals.DistinctVertices,
		SpillRuns:   m.Spill.SpillRuns,
		MergePasses: m.Spill.MergePasses,
	}
	if m.Dist != nil {
		c.LeaseGrants = m.Dist.LeaseGrants
	}
	return c
}

// tracedRun is one in-process traced build of a workload.
type tracedRun struct {
	wall   time.Duration
	counts traceCounts
	digest string
	// layer holds every per-layer metric except trace.overhead_s, which
	// needs the untraced CLI wall time.
	layer map[string]float64
}

// layerAcc accumulates the counters the traced run reads from the layers.
type layerAcc struct {
	counts     traceCounts
	fastqBytes int64
	encoded    int64
	decoded    int64
	probes     int64
	lockWaits  int64
	tableBytes int64 // largest single partition table
	spillBytes int64
	vertices   int64
	outBytes   int64
	reassigned int64
	fenced     int64
	// store is the timed store the build ran against in this process, if
	// any.
	store *timedStore
}

// traceBuild runs the workload in process with spans around every call
// into a layer, in the order the CLI makes those calls. bin is the CLI
// binary the distributed workers re-execute.
func traceBuild(ctx context.Context, w workload, bin string, in *preparedInput, work string) (*tracedRun, error) {
	out := filepath.Join(work, "traced.dbg")
	ckDir := filepath.Join(work, "traced-ck")
	defer os.Remove(out)
	defer os.RemoveAll(ckDir)

	runtime.GC()
	tr := newTracer()
	acc := &layerAcc{}
	rs := startRuntimeSampler()
	start := time.Now()
	var err error
	if w.workers > 0 {
		err = traceDist(ctx, tr, acc, w, bin, in.path, out, ckDir)
	} else {
		err = traceLocal(ctx, tr, acc, w, in.path, out)
	}
	wall := time.Since(start)
	gcCPU, peakHeap := rs.finish()
	if err != nil {
		return nil, err
	}
	digest, err := fileDigest(out)
	if err != nil {
		return nil, err
	}

	var written, read int64
	if acc.store != nil {
		written, read = acc.store.written.Load(), acc.store.read.Load()
	}
	c := acc.counts
	probesPerAccess := 0.0
	if c.Inserts+c.Updates > 0 {
		probesPerAccess = float64(acc.probes) / float64(c.Inserts+c.Updates)
	}
	layer := map[string]float64{
		"fastq.parse_s":               tr.selfSeconds("fastq.parse"),
		"fastq.mb":                    mib(acc.fastqBytes),
		"msp.scan_s":                  tr.selfSeconds("msp.scan"),
		"msp.superkmers":              float64(c.Superkmers),
		"msp.kmers":                   float64(c.Kmers),
		"msp.encode_s":                tr.selfSeconds("msp.encode"),
		"msp.encoded_mb":              mib(acc.encoded),
		"store.write_s":               tr.selfSeconds("store.write"),
		"store.read_s":                tr.selfSeconds("store.read"),
		"store.written_mb":            mib(written),
		"store.read_mb":               mib(read),
		"msp.decode_s":                tr.selfSeconds("msp.decode"),
		"msp.decoded_mb":              mib(acc.decoded),
		"hashtable.insert_s":          tr.selfSeconds("hashtable.insert"),
		"hashtable.inserts":           float64(c.Inserts),
		"hashtable.updates":           float64(c.Updates),
		"hashtable.probes_per_access": probesPerAccess,
		"hashtable.lock_waits":        float64(acc.lockWaits),
		"hashtable.table_mb":          mib(acc.tableBytes),
		"graph.collect_sort_s":        tr.selfSeconds("graph.collect_sort"),
		"graph.merge_s":               tr.selfSeconds("graph.merge"),
		"graph.serialize_s":           tr.selfSeconds("graph.serialize"),
		"graph.vertices":              float64(acc.vertices),
		"graph.out_mb":                mib(acc.outBytes),
		"device.spill_s":              tr.selfSeconds("device.spill"),
		"device.spill_merge_s":        tr.selfSeconds("device.spill_merge"),
		"device.spill_runs":           float64(c.SpillRuns),
		"device.spill_mb":             mib(acc.spillBytes),
		"device.merge_passes":         float64(c.MergePasses),
		"core.dist_prepare_s":         tr.selfSeconds("core.dist_prepare"),
		"dist.run_s":                  tr.selfSeconds("dist.run"),
		"core.dist_finish_s":          tr.selfSeconds("core.dist_finish"),
		"dist.lease_grants":           float64(c.LeaseGrants),
		"dist.reassignments":          float64(acc.reassigned),
		"dist.fenced_writes":          float64(acc.fenced),
		"runtime.gc_cpu_s":            gcCPU,
		"runtime.heap_peak_mb":        mib(int64(peakHeap)),
		"trace.unattributed_s":        (wall - tr.totalSelf()).Seconds(),
	}
	return &tracedRun{wall: wall, counts: c, digest: digest, layer: layer}, nil
}

// traceLocal mirrors the CLI's single-process file build: Step 1 streams
// the FASTQ in chunks through the scan and the partition writer, Step 2
// decodes each partition and builds its subgraph in a hash table (or, over
// the partition budget, by sort-merge spilling), then the subgraphs are
// merged and written. The CLI overlaps a partition's decode with the
// previous partition's hashing; the traced run does not, and that shows in
// trace.overhead_s. Without -checkpoint-dir the CLI keeps every partition
// file, spill run and subgraph in the in-memory store, and so does the
// traced run.
func traceLocal(ctx context.Context, tr *tracer, acc *layerAcc, w workload, inPath, out string) error {
	st := &timedStore{PartitionStore: iosim.NewStore(costmodel.MediumMemCached), tr: tr}
	acc.store = st

	partStats, err := traceStep1(ctx, tr, acc, w, st, inPath)
	if err != nil {
		return err
	}
	var budget int64
	if w.spill {
		budget = spillBudgetBytes
	}
	subs := make([]*graph.Subgraph, len(partStats))
	for i, ps := range partStats {
		sks, err := traceDecode(tr, acc, st, core.SuperkmerFile(i))
		if err != nil {
			return err
		}
		var sub *graph.Subgraph
		if budget > 0 && predictedTableBytes(ps.Kmers) > budget {
			sub, err = traceSpill(ctx, tr, acc, w, st, i, sks, budget)
		} else {
			sub, err = traceHash(ctx, tr, acc, w, sks)
		}
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		acc.counts.Distinct += int64(sub.NumVertices())
		if err := traceSerialize(tr, func() (io.WriteCloser, error) { return st.Create(core.SubgraphFile(i)) }, sub); err != nil {
			return err
		}
		subs[i] = sub
	}
	return traceMergeAndWrite(tr, acc, subs, out)
}

// traceStep1 streams the input through fastq.Reader.Next, device.CPU.Step1
// and msp.Writer.WriteBatch in chunks of core.DefaultStreamChunkBases.
func traceStep1(ctx context.Context, tr *tracer, acc *layerAcc, w workload, st store.PartitionStore, inPath string) ([]msp.PartitionStats, error) {
	f, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cpu := &device.CPU{Threads: w.threads, Cal: costmodel.DefaultCalibration(), Partitions: benchPartitions, Table: cliBackend}

	end := tr.begin("fastq.parse")
	fr, err := fastq.NewAutoReader(&countingReader{r: f, n: &acc.fastqBytes})
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("msp.encode")
	writer, err := msp.NewPartitionWriter(benchK, benchPartitions, func(i int) (io.WriteCloser, error) {
		return st.Create(core.SuperkmerFile(i))
	})
	end()
	if err != nil {
		return nil, err
	}
	chunk := make([]fastq.Read, 0, 1024)
	for eof := false; !eof; {
		chunk = chunk[:0]
		end = tr.begin("fastq.parse")
		for bases := 0; bases < core.DefaultStreamChunkBases; {
			rd, err := fr.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				end()
				writer.Close()
				return nil, err
			}
			chunk = append(chunk, rd)
			bases += len(rd.Bases)
		}
		end()
		if len(chunk) == 0 {
			break
		}
		end = tr.begin("msp.scan")
		res, err := cpu.Step1(ctx, chunk, benchK, benchP)
		end()
		if err != nil {
			writer.Close()
			return nil, err
		}
		end = tr.begin("msp.encode")
		_, n, err := writer.WriteBatch(res.Superkmers)
		end()
		acc.encoded += n
		if err != nil {
			writer.Close()
			return nil, err
		}
	}
	end = tr.begin("msp.encode")
	err = writer.Close()
	end()
	if err != nil {
		return nil, err
	}
	stats := writer.Stats()
	sum := msp.SummarizeStats(stats)
	acc.counts.Superkmers, acc.counts.Kmers = sum.TotalSuperkmers, sum.TotalKmers
	return stats, nil
}

// traceDecode reads one encoded partition back: msp.Decoder.Next plus the
// copy out of the decoder's reuse buffer, as the CLI's Step 2 does.
func traceDecode(tr *tracer, acc *layerAcc, st store.PartitionStore, name string) ([]msp.Superkmer, error) {
	end := tr.begin("msp.decode")
	defer end()
	r, err := st.Open(name)
	if err != nil {
		return nil, err
	}
	dec := msp.NewDecoder(r)
	dec.RequireFooter = true
	var sks []msp.Superkmer
	for {
		sk, err := dec.Next()
		if err == io.EOF {
			acc.decoded += dec.BytesRead()
			return sks, nil
		}
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", name, err)
		}
		sk.Bases = append([]dna.Base(nil), sk.Bases...)
		sks = append(sks, sk)
	}
}

// predictedTableBytes is the Property 1 table footprint the CLI compares
// with the partition budget to route a partition out-of-core.
func predictedTableBytes(kmers int64) int64 {
	slots, err := hashtable.SizeForKmersChecked(kmers, cliLambda, cliAlpha)
	if err != nil {
		return 0
	}
	return hashtable.MemoryBytesForBackend(cliBackend, benchK, slots)
}

// traceHash builds one partition's subgraph in a hash table: parallel
// insertion through per-worker Inserter handles, then ForEach and
// SortParallel. A full table is doubled and refilled, as the CLI does.
func traceHash(ctx context.Context, tr *tracer, acc *layerAcc, w workload, sks []msp.Superkmer) (*graph.Subgraph, error) {
	var kmers int64
	for i := range sks {
		kmers += int64(sks[i].NumKmers(benchK))
	}
	slots, err := hashtable.SizeForKmersChecked(kmers, cliLambda, cliAlpha)
	if err != nil {
		return nil, err
	}
	for resizes := 0; ; resizes++ {
		end := tr.begin("hashtable.insert")
		table, err := hashtable.NewBackend(cliBackend, benchK, slots)
		if err == nil {
			err = insertParallel(ctx, table, sks, w.threads)
		}
		end()
		if table != nil {
			m := table.Metrics().Snapshot()
			acc.counts.Inserts += m.Inserts
			acc.counts.Updates += m.Updates
			acc.probes += m.Probes
			acc.lockWaits += m.LockWaits
		}
		if errors.Is(err, hashtable.ErrTableFull) && resizes < maxTableResizes {
			slots *= 2
			continue
		}
		if err != nil {
			return nil, err
		}
		if b := table.MemoryBytes(); b > acc.tableBytes {
			acc.tableBytes = b
		}
		end = tr.begin("graph.collect_sort")
		sub := &graph.Subgraph{K: benchK, Vertices: make([]graph.Vertex, 0, table.Len())}
		table.ForEach(func(e hashtable.Entry) {
			sub.Vertices = append(sub.Vertices, graph.Vertex{Kmer: e.Kmer, Counts: e.Counts})
		})
		sub.SortParallel(min(w.threads, runtime.GOMAXPROCS(0)))
		end()
		return sub, nil
	}
}

// insertParallel inserts every k-mer edge of the partition with the given
// number of workers, each claiming contiguous slices of superkmers from a
// shared cursor through its own Inserter handle.
func insertParallel(ctx context.Context, table hashtable.KmerTable, sks []msp.Superkmer, workers int) error {
	const grain = 256
	var cursor atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ins := table.Inserter(wk)
			for {
				lo := int(cursor.Add(grain)) - grain
				if lo >= len(sks) || ctx.Err() != nil {
					errs[wk] = ctx.Err()
					return
				}
				for i := lo; i < min(lo+grain, len(sks)); i++ {
					msp.ForEachKmerEdge(sks[i], benchK, func(e msp.KmerEdge) {
						if errs[wk] == nil {
							errs[wk] = ins.InsertEdge(e)
						}
					})
					if errs[wk] != nil {
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// traceSpill builds one partition out-of-core with device.SpillRuns and
// device.MergeSpilled under the partition budget.
func traceSpill(ctx context.Context, tr *tracer, acc *layerAcc, w workload, st store.PartitionStore, part int, sks []msp.Superkmer, budget int64) (*graph.Subgraph, error) {
	ecfg := device.ExternalConfig{
		K:           benchK,
		BufferBytes: budget,
		SortWorkers: w.threads,
		Store:       st,
		RunName:     func(run int) string { return core.SpillRunFile(part, run) },
		Cal:         costmodel.DefaultCalibration(),
		Threads:     w.threads,
	}
	end := tr.begin("device.spill")
	spill, err := device.SpillRuns(ctx, sks, ecfg)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("device.spill_merge")
	out, passes, err := device.MergeSpilled(ctx, spill.RunNames, ecfg)
	end()
	if err != nil {
		return nil, err
	}
	acc.counts.SpillRuns += int64(len(spill.RunNames))
	acc.counts.MergePasses += passes
	acc.spillBytes += spill.SpilledBytes
	return out.Graph, nil
}

// traceSerialize writes a subgraph through Subgraph.Write into a sink.
func traceSerialize(tr *tracer, create func() (io.WriteCloser, error), sub *graph.Subgraph) error {
	end := tr.begin("graph.serialize")
	defer end()
	sink, err := create()
	if err != nil {
		return err
	}
	if err := sub.Write(sink); err != nil {
		sink.Close()
		return err
	}
	return sink.Close()
}

// traceMergeAndWrite merges the subgraphs with graph.Merge and writes the
// result to the output file, as the CLI's -out does.
func traceMergeAndWrite(tr *tracer, acc *layerAcc, subs []*graph.Subgraph, out string) error {
	end := tr.begin("graph.merge")
	merged, err := graph.Merge(benchK, subs...)
	end()
	if err != nil {
		return err
	}
	return traceWriteOutput(tr, acc, merged, out)
}

func traceWriteOutput(tr *tracer, acc *layerAcc, g *graph.Subgraph, out string) error {
	acc.vertices = int64(g.NumVertices())
	if err := traceSerialize(tr, func() (io.WriteCloser, error) { return os.Create(out) }, g); err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	acc.outBytes = fi.Size()
	return nil
}

// traceDist mirrors the CLI's -workers build: parse the whole input,
// core.PrepareDistBuild (Step 1 into the checkpoint store), dist.Run over
// worker processes re-executing the CLI binary, DistPlan.Finish, write.
// The coordinator's store is wrapped through Config.StoreWrap, so its
// Step 1 writes are timed; the workers' store traffic happens in other
// processes and lands in dist.run_s.
func traceDist(ctx context.Context, tr *tracer, acc *layerAcc, w workload, bin, inPath, out, ckDir string) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	end := tr.begin("fastq.parse")
	reads, err := fastq.ReadAll(&countingReader{r: f, n: &acc.fastqBytes})
	end()
	f.Close()
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.K, cfg.P, cfg.NumPartitions = benchK, benchP, benchPartitions
	cfg.CPUThreads, cfg.NumGPUs, cfg.UseCPU = w.threads, 0, true
	cfg.Lambda, cfg.Alpha, cfg.TableBackend = cliLambda, cliAlpha, string(cliBackend)
	cfg.Resilience.BackoffJitterSeed = 1
	cfg.Checkpoint = core.CheckpointConfig{Dir: ckDir, InputLabel: "file:" + inPath}
	cfg.StoreWrap = func(base store.PartitionStore) store.PartitionStore {
		acc.store = &timedStore{PartitionStore: base, tr: tr}
		return acc.store
	}

	end = tr.begin("core.dist_prepare")
	plan, err := core.PrepareDistBuild(ctx, reads, cfg)
	end()
	if err != nil {
		return err
	}
	wargs := []string{
		"-k", strconv.Itoa(benchK), "-p", strconv.Itoa(benchP),
		"-partitions", strconv.Itoa(benchPartitions),
		"-threads", strconv.Itoa(w.threads), "-gpus", "0",
		"-medium", "mem",
		"-lambda", fmt.Sprint(cliLambda), "-alpha", fmt.Sprint(cliAlpha),
		"-table", string(cliBackend), "-checkpoint-dir", ckDir,
	}
	env := childEnv(filepath.Dir(out))
	transport := &dist.ProcTransport{Command: func(id string) (*exec.Cmd, error) {
		cmd := exec.Command(bin, append(append([]string(nil), wargs...), "-dist-worker="+id)...)
		cmd.Env = env
		return cmd, nil
	}}
	end = tr.begin("dist.run")
	ds, err := dist.Run(ctx, plan, transport, dist.Options{Workers: w.workers, LeaseMS: cliLeaseMS})
	end()
	if err != nil {
		return err
	}
	end = tr.begin("core.dist_finish")
	res, err := plan.Finish(ds)
	end()
	if err != nil {
		return err
	}
	s := res.Stats
	acc.counts = traceCounts{
		Superkmers:  s.Superkmers.TotalSuperkmers,
		Kmers:       s.TotalKmers,
		Inserts:     s.Hash.Inserts,
		Updates:     s.Hash.Updates,
		Distinct:    s.DistinctVertices,
		SpillRuns:   s.Spill.Runs,
		MergePasses: s.Spill.MergePasses,
		LeaseGrants: ds.LeaseGrants,
	}
	acc.encoded = s.Superkmers.TotalEncoded
	acc.reassigned, acc.fenced = ds.Reassignments, ds.FencedWrites
	return traceWriteOutput(tr, acc, res.Graph, out)
}

// countingReader counts the bytes read from the input file.
type countingReader struct {
	r io.Reader
	n *int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}
