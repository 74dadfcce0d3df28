package core

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"parahash/internal/device"
	"parahash/internal/diskstore"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/manifest"
	"parahash/internal/msp"
	"parahash/internal/store"
)

// This file is the core side of the distributed Step 2 path (internal/dist):
// the coordinator prepares a checkpointed build up to the end of Step 1,
// hands partition assignment to the dist coordinator, and folds fenced
// worker results back into the manifest through the same atomic
// verify-then-journal discipline the single-process build uses.

// DistStats aggregates the distributed-build fault-tolerance counters the
// coordinator accumulates over a run. All zero on a fault-free fleet.
type DistStats struct {
	// Workers is the configured fleet size; Spawned counts worker
	// processes actually started, replacements included.
	Workers int
	Spawned int
	// LeaseGrants counts partition-range leases granted (initial
	// assignments plus reassignments).
	LeaseGrants int64
	// LeaseExpiries counts leases that passed their heartbeat deadline and
	// were revoked.
	LeaseExpiries int64
	// Reassignments counts partitions handed to a different worker after
	// their original lease was revoked.
	Reassignments int64
	// FencedWrites counts results rejected because they carried a stale
	// fencing token — the zombie writes that would have corrupted a
	// re-assigned partition without fencing.
	FencedWrites int64
	// WorkerQuarantines counts workers removed from the fleet after
	// exhausting their failure budget.
	WorkerQuarantines int64
}

// DistPlan is a checkpointed build prepared for distributed Step 2: Step 1
// has run (or resumed) and every remaining partition is ready to be leased
// to worker processes. The plan owns the manifest; the dist coordinator is
// its only writer while the plan is open.
type DistPlan struct {
	cfg       Config
	ck        *checkpoint
	partStats []msp.PartitionStats
	step1     StepStats
}

// PrepareDistBuild validates the configuration, opens the checkpoint
// (fresh or resumed) and runs Step 1 exactly as a single-process build
// would, returning the plan for distributed Step 2. A checkpoint directory
// is required: the durable store is the only channel worker processes
// share.
func PrepareDistBuild(ctx context.Context, reads []fastq.Read, cfg Config) (*DistPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fastq.Validate(reads, cfg.K); err != nil {
		return nil, err
	}
	if cfg.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("core: distributed build requires a checkpoint directory")
	}
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		return nil, err
	}
	step1, err := buildStep1(ctx, cfg, st, ck, sliceChunks(reads, cfg.inputChunks()))
	if err != nil {
		return nil, canceledErr(ctx, fmt.Errorf("core: step 1 (MSP partitioning): %w", err))
	}
	// Any leases in a resumed manifest belong to a dead coordinator; this
	// process owns the whole partition space now. So do any journalled
	// spill runs: they were scanned by a dead single-process build, and
	// workers spill under their own fenced names instead of reading the
	// manifest, so nothing will ever merge them — drop the claims in the
	// same save, then remove the files.
	ck.man.ClearLeases()
	staleRuns := append([]manifest.SpillRun(nil), ck.man.SpillRuns...)
	ck.man.SpillRuns, ck.man.SpillDone = nil, nil
	ck.spillReady = map[int][]manifest.SpillRun{}
	if err := ck.man.Save(ck.path); err != nil {
		return nil, err
	}
	for _, rec := range staleRuns {
		_ = ck.ds.Remove(rec.Name) // best-effort; scrub sweeps leftovers
	}
	p := &DistPlan{cfg: cfg, ck: ck, partStats: step1.parts, step1: step1.stats}
	// So are any fenced orphans: results the dead fleet published but never
	// reported. Nothing will ever promote them (their tokens are below the
	// preserved high-water), so sweep them before leasing the space out.
	if _, err := p.SweepFenced(); err != nil {
		return nil, err
	}
	return p, nil
}

// Partitions returns the build's partition count.
func (p *DistPlan) Partitions() int { return p.cfg.NumPartitions }

// Pending returns the partitions whose Step 2 is not yet durably journalled,
// in index order.
func (p *DistPlan) Pending() []int {
	var out []int
	for i := 0; i < p.cfg.NumPartitions; i++ {
		if !p.ck.skipStep2(i) {
			out = append(out, i)
		}
	}
	return out
}

// KmersOf returns a partition's k-mer count (the Step 2 work weight).
func (p *DistPlan) KmersOf(i int) int64 { return p.partStats[i].Kmers }

// Manifest exposes the live manifest for lease journalling. The caller must
// persist every mutation with SaveManifest before acting on it.
func (p *DistPlan) Manifest() *manifest.Manifest { return p.ck.man }

// SaveManifest atomically persists the manifest.
func (p *DistPlan) SaveManifest() error { return p.ck.man.Save(p.ck.path) }

// FencedName returns the store name a worker holding the given fencing
// token must publish partition i's subgraph under. Workers never write the
// canonical name: only the coordinator promotes a verified fenced file, so
// a zombie worker's late write can at worst leave an orphan file that the
// final sweep removes.
func FencedName(i int, token int64) string {
	return fmt.Sprintf("%s.t%d", subgraphFile(i), token)
}

// PromoteFenced verifies a worker's fenced subgraph file, atomically
// renames it to the canonical partition name and journals the Step 2
// completion. distinct is the worker-reported pre-filter vertex count. The
// caller must have checked the token is current; PromoteFenced checks the
// bytes (parse + vertex count sanity) so a truncated or torn worker file
// can never enter the manifest.
func (p *DistPlan) PromoteFenced(i int, token int64, distinct int64) error {
	name := FencedName(i, token)
	r, err := p.ck.ds.Open(name)
	if err != nil {
		return fmt.Errorf("core: reading fenced subgraph %q: %w", name, err)
	}
	g, err := graph.ReadSubgraph(r)
	if err != nil {
		return fmt.Errorf("core: fenced subgraph %q is corrupt: %w", name, err)
	}
	if err := p.ck.ds.Rename(name, subgraphFile(i)); err != nil {
		return fmt.Errorf("core: promoting fenced subgraph %q: %w", name, err)
	}
	if err := p.ck.markStep2(i, g, distinct); err != nil {
		return err
	}
	if p.cfg.KeepSubgraphs {
		p.ck.subgraphs[i] = g
	}
	return nil
}

// DiscardFenced removes a stale worker result (a write fenced off by a
// newer token). Missing files are fine: the zombie may never have published.
func (p *DistPlan) DiscardFenced(i int, token int64) error {
	return p.ck.ds.Remove(FencedName(i, token))
}

// SweepFenced removes every fenced file still in the store — the orphans of
// revoked leases whose workers published after losing their claim: fenced
// subgraphs, and the fenced spill runs of workers killed mid-merge on an
// out-of-core partition. Returns the swept names. Run after the build
// completes so the checkpoint directory holds exactly the canonical
// artifacts.
func (p *DistPlan) SweepFenced() ([]string, error) {
	names, err := p.ck.ds.List()
	if err != nil {
		return nil, err
	}
	var swept []string
	for _, name := range names {
		var idx, run int
		var token int64
		fenced := false
		if n, _ := fmt.Sscanf(name, "subgraphs/%04d.t%d", &idx, &token); n == 2 {
			fenced = true
		} else if n, _ := fmt.Sscanf(name, "spill/%04d/run-%04d.t%d", &idx, &run, &token); n == 3 {
			fenced = true
		}
		if !fenced {
			continue
		}
		if err := p.ck.ds.Remove(name); err != nil {
			return swept, err
		}
		swept = append(swept, name)
	}
	return swept, nil
}

// Done reports whether every partition's Step 2 completion is journalled.
func (p *DistPlan) Done() bool {
	for i := 0; i < p.cfg.NumPartitions; i++ {
		if p.ck.man.Step2For(i) == nil {
			return false
		}
	}
	return true
}

// Finish assembles the run result after every partition is journalled,
// folding the coordinator's distributed-governance counters into the
// stats. With KeepSubgraphs the canonical subgraph files are re-read and
// merged — the same artifacts a resume would trust.
func (p *DistPlan) Finish(dist DistStats) (*Result, error) {
	if !p.Done() {
		return nil, fmt.Errorf("core: distributed build incomplete: %d of %d partitions journalled",
			len(p.ck.man.Step2), p.cfg.NumPartitions)
	}
	res := &Result{}
	res.Stats.Step1 = p.step1
	res.Stats.Step2 = StepStats{Partitions: p.cfg.NumPartitions}
	res.Stats.TotalSeconds = p.step1.Seconds
	res.Stats.Superkmers = msp.SummarizeStats(p.partStats)
	res.Stats.TotalKmers = res.Stats.Superkmers.TotalKmers
	for _, rec := range p.ck.man.Step2 {
		res.Stats.DistinctVertices += rec.Distinct
	}
	res.Stats.DuplicateVertices = res.Stats.TotalKmers - res.Stats.DistinctVertices
	res.Stats.ResumedPartitions = p.ck.resumed
	res.Stats.RebuiltPartitions = p.ck.rebuilt()
	res.Stats.Dist = &dist
	if p.cfg.KeepSubgraphs {
		subgraphs := make([]*graph.Subgraph, p.cfg.NumPartitions)
		for i := 0; i < p.cfg.NumPartitions; i++ {
			if g, ok := p.ck.subgraphs[i]; ok {
				subgraphs[i] = g
				continue
			}
			rec := p.ck.man.Step2For(i)
			g, ok := verifySubgraphFile(p.ck.ds, rec)
			if !ok {
				return nil, fmt.Errorf("core: journalled subgraph %d failed verification at finish", i)
			}
			subgraphs[i] = g
		}
		merged, err := graph.Merge(p.cfg.K, subgraphs...)
		if err != nil {
			return nil, err
		}
		res.Graph = merged
		res.Subgraphs = subgraphs
	}
	return res, nil
}

// DistOutput is a worker's report for one constructed partition: the fenced
// store name it published plus the counts the coordinator journals after
// promotion.
type DistOutput struct {
	Name     string
	Bytes    int64
	Vertices int64
	Edges    int64
	Distinct int64
	Kmers    int64
}

// ConstructDistPartition is the worker side of distributed Step 2: decode
// one superkmer partition from the shared checkpoint store, construct its
// subgraph on this process's first configured processor, apply the output
// filter, and publish the result under the fenced name outName (never the
// canonical one — promotion is the coordinator's job). The store's atomic
// publish means a worker killed at any point leaves either nothing or the
// complete fenced file.
func ConstructDistPartition(ctx context.Context, cfg Config, index int, outName string) (DistOutput, error) {
	if err := cfg.Validate(); err != nil {
		return DistOutput{}, err
	}
	if cfg.Checkpoint.Dir == "" {
		return DistOutput{}, fmt.Errorf("core: distributed worker requires a checkpoint directory")
	}
	ds, err := diskstore.Open(filepath.Join(cfg.Checkpoint.Dir, "data"))
	if err != nil {
		return DistOutput{}, fmt.Errorf("core: opening checkpoint store: %w", err)
	}
	var st store.PartitionStore = ds
	st = wrapBuildStore(cfg, st)
	sks, _, err := loadPartition(st, superkmerFile(index))
	if err != nil {
		return DistOutput{}, fmt.Errorf("core: loading partition %d: %w", index, err)
	}
	procs := processors(cfg)
	if len(procs) == 0 {
		return DistOutput{}, fmt.Errorf("core: no processors configured")
	}
	var kmers int64
	for i := range sks {
		kmers += int64(sks[i].NumKmers(cfg.K))
	}
	var out device.Step2Output
	spilled := false
	if predicted, ok := cfg.predictedTableBytes(kmers); ok {
		if budget, auto := cfg.spillBudgetFor(predicted); budget > 0 {
			if auto {
				cfg.logf("core: worker: partition %d predicted %d table bytes, over the %d-byte memory budget; auto-routing out-of-core",
					index, predicted, cfg.MemoryBudgetBytes)
			}
			out, err = distSpillStep2(ctx, cfg, index, outName, sks, st, budget)
			if err != nil {
				return DistOutput{}, fmt.Errorf("core: constructing partition %d out-of-core: %w", index, err)
			}
			spilled = true
		}
	}
	if !spilled {
		out, err = step2Construct(ctx, procs[0], sks, cfg)
		if err != nil {
			return DistOutput{}, fmt.Errorf("core: constructing partition %d: %w", index, err)
		}
	}
	toWrite, err := publishSubgraph(cfg, st, outName, out.Graph)
	if err != nil {
		return DistOutput{}, err
	}
	return DistOutput{
		Name:     outName,
		Bytes:    graph.SerializedSize(toWrite.NumVertices()),
		Vertices: int64(toWrite.NumVertices()),
		Edges:    int64(toWrite.NumEdges()),
		Distinct: out.Distinct,
		Kmers:    out.Kmers,
	}, nil
}

// distSpillStep2 is the worker side of an out-of-core partition: spill
// budget-bounded sorted runs, merge them into the subgraph, then remove the
// runs — the merged graph is in memory and the fenced subgraph publish below
// is the only artifact the coordinator will ever trust. Workers never touch
// the manifest, so runs are fenced by name instead of journalled: the
// worker's fencing token (parsed from its assigned output name) suffixes
// every run, keeping a zombie holding a revoked lease out of the current
// holder's in-flight files. A worker killed at any point leaves only fenced
// orphans, which SweepFenced removes.
func distSpillStep2(ctx context.Context, cfg Config, index int, outName string, sks []msp.Superkmer, st store.PartitionStore, budget int64) (device.Step2Output, error) {
	threads := cfg.CPUThreads
	if threads < 1 {
		threads = 1
	}
	runSuffix := ""
	var subIdx int
	var token int64
	if n, _ := fmt.Sscanf(outName, "subgraphs/%04d.t%d", &subIdx, &token); n == 2 {
		runSuffix = fmt.Sprintf(".t%d", token)
	}
	ecfg := device.ExternalConfig{
		K:           cfg.K,
		BufferBytes: budget,
		SortWorkers: threads,
		Store:       st,
		RunName:     func(run int) string { return spillRunFile(index, run) + runSuffix },
		Cal:         cfg.Calibration,
		Threads:     threads,
	}
	out, _, _, err := device.ExternalStep2(ctx, sks, ecfg)
	if err != nil {
		return device.Step2Output{}, err
	}
	// Best-effort cleanup of this attempt's runs, merge intermediates
	// included (they continue the ordinal sequence under the same fenced
	// suffix); failures leave orphans for SweepFenced.
	if names, err := st.List(); err == nil {
		prefix := fmt.Sprintf("spill/%04d/", index)
		for _, name := range names {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, runSuffix) {
				_ = st.Remove(name)
			}
		}
	}
	return out, nil
}
