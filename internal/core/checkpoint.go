package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"parahash/internal/diskstore"
	"parahash/internal/graph"
	"parahash/internal/manifest"
	"parahash/internal/msp"
	"parahash/internal/store"
)

// ErrManifestMismatch reports a resume attempt against a checkpoint built
// with a different configuration (K, P, partition count, output filter or
// input). Resuming would silently mix partitions from two different
// constructions, so the build fails fast instead.
var ErrManifestMismatch = manifest.ErrMismatch

// checkpoint carries a build's durable-store state: the manifest journal and
// the resume assessment — which partitions can be skipped, which claimed
// artifacts failed verification and must be rebuilt.
type checkpoint struct {
	ds   *diskstore.Store
	man  *manifest.Manifest
	path string

	// mu serialises manifest mutation and Save. Step 2 completions are
	// journalled from the pipeline's write stage (single-threaded), but
	// spill runs are journalled from concurrent compute workers — several
	// oversized partitions can publish runs at once.
	mu sync.Mutex
	// sealed, under mu, closes the journal once Step 2's pipeline has
	// returned: an attempt the watchdog abandoned, or one still unwinding
	// from a cancellation, may outlive the build, and must not save the
	// manifest under a later Scrub or resume.
	sealed bool

	// step1Valid marks the manifest's Step 1 roster trustworthy: every
	// partition file either verified or is listed in step1Rebuild.
	step1Valid bool
	// step1Rebuild lists partitions whose Step 1 file failed verification
	// (missing, wrong size, or CRC mismatch) and must be rewritten.
	step1Rebuild map[int]bool
	// step2Skip holds the verified Step 2 completions; those partitions are
	// not re-executed.
	step2Skip map[int]manifest.Step2Partition
	// subgraphs caches the resumed partitions' parsed subgraphs when the
	// build keeps them (they were parsed for verification anyway).
	subgraphs map[int]*graph.Subgraph
	// spillReady maps partitions whose spill scan completed before the
	// crash (spill-done journalled, every run file verified) to their run
	// records in merge order. A resume that still routes the partition
	// out-of-core merges these runs directly instead of re-spilling.
	spillReady map[int][]manifest.SpillRun

	// resumed counts partitions skipped because their Step 2 artifact
	// verified; rebuiltSet collects partitions whose manifest claim failed
	// verification and had to be re-executed.
	resumed    int
	rebuiltSet map[int]bool
}

// wrapBuildStore applies the config's fault-injection store wrapper, if
// any, to the store the build's pipeline reads and writes through. The
// checkpoint keeps its direct handle on the raw disk store: resume
// verification and Scrub judge the durable bytes, not the fault layer.
func wrapBuildStore(cfg Config, st store.PartitionStore) store.PartitionStore {
	if cfg.StoreWrap != nil {
		return cfg.StoreWrap(st)
	}
	return st
}

// openCheckpoint resolves the configured store. Without a checkpoint
// directory it returns the in-memory simulated store and a nil checkpoint —
// the historical behaviour. With one it opens the durable disk store,
// loads (or initialises) the manifest, and on resume assesses every claim.
func openCheckpoint(cfg Config) (store.PartitionStore, *checkpoint, error) {
	if cfg.Checkpoint.Dir == "" {
		return wrapBuildStore(cfg, newSimStore(cfg)), nil, nil
	}
	ds, err := diskstore.Open(filepath.Join(cfg.Checkpoint.Dir, "data"))
	if err != nil {
		return nil, nil, fmt.Errorf("core: opening checkpoint store: %w", err)
	}
	ck := &checkpoint{
		ds:           ds,
		path:         filepath.Join(cfg.Checkpoint.Dir, "manifest.json"),
		step1Rebuild: make(map[int]bool),
		step2Skip:    make(map[int]manifest.Step2Partition),
		subgraphs:    make(map[int]*graph.Subgraph),
		spillReady:   make(map[int][]manifest.SpillRun),
		rebuiltSet:   make(map[int]bool),
	}
	fp := cfg.fingerprint()
	if cfg.Checkpoint.Resume {
		m, err := manifest.Load(ck.path)
		switch {
		case err == nil:
			if err := m.Validate(fp, cfg.NumPartitions); err != nil {
				return nil, nil, err
			}
			ck.man = m
			ck.assess(cfg)
			return wrapBuildStore(cfg, ds), ck, nil
		case os.IsNotExist(err):
			// No manifest yet — nothing durable to trust; fall through to a
			// fresh start in the same directory.
		default:
			return nil, nil, fmt.Errorf("core: loading checkpoint manifest: %w", err)
		}
	}
	// Fresh build: drop any stale manifest before clearing the data it
	// refers to, so a crash between the two never leaves claims without
	// backing files.
	if err := os.Remove(ck.path); err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("core: clearing checkpoint manifest: %w", err)
	}
	if err := ds.Reset(); err != nil {
		return nil, nil, fmt.Errorf("core: clearing checkpoint store: %w", err)
	}
	ck.man = manifest.New(fp, cfg.NumPartitions)
	if err := ck.man.Save(ck.path); err != nil {
		return nil, nil, err
	}
	return wrapBuildStore(cfg, ds), ck, nil
}

// assess verifies every manifest claim against the durable store and fills
// the resume plan. It never fails: an unverifiable claim just downgrades to
// a rebuild of that partition.
func (ck *checkpoint) assess(cfg Config) {
	m := ck.man
	if !m.Step1Done {
		// A crash before Step 1 completion leaves only unpublished *.tmp
		// files; nothing claimed, nothing trusted — full rerun.
		m.Step1, m.Step2, m.Step1Done = nil, nil, false
		m.SpillRuns, m.SpillDone = nil, nil
		return
	}
	ck.step1Valid = true
	for i := 0; i < m.Partitions; i++ {
		if rec := m.Step2For(i); rec != nil {
			if g, ok := verifySubgraphFile(ck.ds, rec, cfg.KeepSubgraphs); ok {
				ck.step2Skip[i] = *rec
				if cfg.KeepSubgraphs {
					ck.subgraphs[i] = g
				}
				ck.resumed++
				continue
			}
			m.DropStep2(i)
			ck.rebuiltSet[i] = true
		}
		// Spill claims are trusted for a merge-only resume only when the run
		// scan completed before the crash and every journalled run file
		// verifies (size, CRC footer, journalled checksum, sort order).
		// Anything less — a partial scan, a missing or damaged run — drops
		// the partition's whole spill state; it re-spills from its Step 1
		// file, overwriting the same deterministic run names.
		if runs := m.SpillRunsFor(i); len(runs) > 0 || m.IsSpillDone(i) {
			if m.IsSpillDone(i) && verifySpillRuns(ck.ds, cfg.K, runs) {
				ck.spillReady[i] = runs
			} else {
				m.DropSpill(i)
			}
		}
		// The partition will run Step 2, so its Step 1 file must be intact.
		if !ck.verifyStep1(m.Step1For(i)) {
			ck.step1Rebuild[i] = true
			ck.rebuiltSet[i] = true
		}
	}
}

// verifyStep1 checks a claimed partition file against the durable store.
func (ck *checkpoint) verifyStep1(rec *manifest.Step1Partition) bool {
	return verifyStep1File(ck.ds, rec)
}

// verifyStep1File checks a claimed partition file: present, the recorded
// size, and a full decode under RequireFooter whose record CRC matches the
// manifest's independently recorded checksum. Resume assessment and the
// Scrub repair pass share this exact judgement, so a claim Scrub verifies
// clean is by construction one a resume will trust.
func verifyStep1File(ds store.PartitionStore, rec *manifest.Step1Partition) bool {
	if rec == nil {
		return false
	}
	if sz, err := ds.Size(rec.Name); err != nil || sz != rec.Bytes {
		return false
	}
	r, err := ds.Open(rec.Name)
	if err != nil {
		return false
	}
	dec := msp.NewDecoder(r)
	dec.RequireFooter = true
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			return false
		}
	}
	return dec.Sum32() == rec.CRC32
}

// verifySubgraphFile checks a claimed subgraph file: openSubgraph's size
// and vertex-count checks, then a full streaming read (SubgraphReader's
// record count and k-mer order). With keep it also returns the parsed
// graph, so a KeepSubgraphs build reuses the verification read; otherwise
// it holds one read buffer, never the graph.
func verifySubgraphFile(ds store.PartitionStore, rec *manifest.Step2Partition, keep bool) (*graph.Subgraph, bool) {
	if rec == nil {
		return nil, false
	}
	sr, err := openSubgraph(ds, *rec)
	if err != nil {
		return nil, false
	}
	g, _, err := scanSubgraph(sr, keep)
	return g, err == nil
}

// scanSubgraph reads sr to its end and counts the directed edges; with keep
// it also returns the graph read, grown as records arrive so a corrupt
// header cannot claim a huge allocation.
func scanSubgraph(sr *graph.SubgraphReader, keep bool) (*graph.Subgraph, int64, error) {
	var g *graph.Subgraph
	if keep {
		g = &graph.Subgraph{K: sr.K(), Vertices: make([]graph.Vertex, 0, min(sr.Count(), 1<<20))}
	}
	var edges int64
	for {
		var v graph.Vertex
		ok, err := sr.Next(&v)
		if err != nil || !ok {
			return g, edges, err
		}
		edges += int64(v.Degree())
		if keep {
			g.Vertices = append(g.Vertices, v)
		}
	}
}

// openSubgraph opens a published subgraph file for streaming once it
// matches its record: present, the recorded size, and a header declaring
// the recorded vertex count, which that size holds exactly.
func openSubgraph(st store.PartitionStore, rec manifest.Step2Partition) (*graph.SubgraphReader, error) {
	sz, err := st.Size(rec.Name)
	if err != nil {
		return nil, fmt.Errorf("core: subgraph %q: %w", rec.Name, err)
	}
	if sz != rec.Bytes {
		return nil, fmt.Errorf("%w: subgraph %q is %d bytes, recorded %d", graph.ErrBadFormat, rec.Name, sz, rec.Bytes)
	}
	r, err := st.Open(rec.Name)
	if err != nil {
		return nil, fmt.Errorf("core: subgraph %q: %w", rec.Name, err)
	}
	sr, err := graph.NewSubgraphReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: subgraph %q: %w", rec.Name, err)
	}
	if sr.Count() != rec.Vertices || graph.SerializedSize(int(rec.Vertices)) != sz {
		return nil, fmt.Errorf("%w: subgraph %q declares %d vertices in %d bytes, recorded %d",
			graph.ErrBadFormat, rec.Name, sr.Count(), sz, rec.Vertices)
	}
	return sr, nil
}

// verifySpillRuns checks every journalled run of a partition: present, the
// recorded size, a clean streaming verification (structure, sort order,
// CRC footer) and a checksum matching the manifest's independent record.
func verifySpillRuns(ds store.PartitionStore, k int, runs []manifest.SpillRun) bool {
	for _, rec := range runs {
		if !verifySpillRunFile(ds, k, rec) {
			return false
		}
	}
	return true
}

// verifySpillRunFile applies the spill-run judgement shared by resume
// assessment and Scrub.
func verifySpillRunFile(ds store.PartitionStore, k int, rec manifest.SpillRun) bool {
	if sz, err := ds.Size(rec.Name); err != nil || sz != rec.Bytes {
		return false
	}
	r, err := ds.Open(rec.Name)
	if err != nil {
		return false
	}
	n, crc, err := graph.VerifyRun(r, k)
	return err == nil && n == rec.Vertices && crc == rec.CRC32
}

// skipStep2 reports whether a partition's Step 2 is already durably done.
func (ck *checkpoint) skipStep2(i int) bool {
	_, ok := ck.step2Skip[i]
	return ok
}

// step1Complete reports whether every Step 1 partition file is verified —
// the whole MSP partitioning step can be skipped.
func (ck *checkpoint) step1Complete() bool {
	return ck.step1Valid && len(ck.step1Rebuild) == 0
}

// partitionStats reconstructs the per-partition Step 1 statistics from the
// manifest, so a fully resumed Step 1 schedules Step 2 without rescanning
// the input.
func (ck *checkpoint) partitionStats() []msp.PartitionStats {
	out := make([]msp.PartitionStats, ck.man.Partitions)
	for _, rec := range ck.man.Step1 {
		out[rec.Index] = msp.PartitionStats{
			Superkmers:   rec.Superkmers,
			Kmers:        rec.Kmers,
			Bases:        rec.Bases,
			EncodedBytes: rec.EncodedBytes,
			PlainBytes:   rec.PlainBytes,
		}
	}
	return out
}

// recordStep1 journals Step 1 completion: every partition's published file
// footprint plus its statistics, then Step1Done. Called only after the
// writer has closed — i.e. after every file is durably published — so each
// claim is backed by bytes on disk.
func (ck *checkpoint) recordStep1(stats []msp.PartitionStats, infos []msp.FileInfo) error {
	for i := range stats {
		ck.man.SetStep1(manifest.Step1Partition{
			Index:        i,
			Name:         superkmerFile(i),
			Bytes:        infos[i].Bytes,
			CRC32:        infos[i].CRC32,
			Superkmers:   stats[i].Superkmers,
			Kmers:        stats[i].Kmers,
			Bases:        stats[i].Bases,
			EncodedBytes: stats[i].EncodedBytes,
			PlainBytes:   stats[i].PlainBytes,
		})
	}
	ck.man.Step1Done = true
	return ck.man.Save(ck.path)
}

// markStep2 journals one partition's Step 2 completion after its subgraph
// file has been durably published. rec describes the file as written
// (after any output filtering) and keeps the constructed pre-filter vertex
// count, so resumed runs keep exact graph-size accounting. Any spill
// claims the partition accumulated are dropped in the same atomic save —
// the subgraph supersedes its runs — and the run files are removed
// afterwards (a crash in between leaves unjournalled orphans, swept by
// Scrub).
func (ck *checkpoint) markStep2(rec manifest.Step2Partition) error {
	i := rec.Index
	var spilled []manifest.SpillRun
	if err := ck.journal(func() bool {
		spilled = ck.man.SpillRunsFor(i)
		ck.man.DropSpill(i)
		ck.man.SetStep2(rec)
		return true
	}); err != nil {
		return err
	}
	for _, rec := range spilled {
		_ = ck.ds.Remove(rec.Name)
	}
	if len(spilled) > 0 {
		// Merge intermediates continue the run ordinal sequence but are
		// never journalled (they are reconstructible), so the claim loop
		// above misses them: sweep the partition's whole spill namespace.
		sweepSpillPrefix(ck.ds, i)
	}
	return nil
}

// sweepSpillPrefix best-effort removes every store object under a
// partition's spill directory — journalled runs and unjournalled merge
// intermediates alike. Called only after the partition's subgraph is
// durable, when the runs have nothing left to prove.
func sweepSpillPrefix(st store.PartitionStore, part int) {
	names, err := st.List()
	if err != nil {
		return
	}
	prefix := fmt.Sprintf("spill/%04d/", part)
	for _, name := range names {
		if strings.HasPrefix(name, prefix) {
			_ = st.Remove(name)
		}
	}
}

// errJournalSealed rejects a journal write from an attempt that outlived
// its build's Step 2.
var errJournalSealed = errors.New("core: checkpoint journal sealed: Step 2 has returned")

// journal applies one Step 2 mutation to the manifest under mu and saves
// it, unless mutate reports nothing changed. Once the journal is sealed it
// fails instead, leaving the manifest alone.
func (ck *checkpoint) journal(mutate func() bool) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.sealed {
		return errJournalSealed
	}
	if !mutate() {
		return nil
	}
	return ck.man.Save(ck.path)
}

// seal closes the journal to Step 2 writers; it waits for an in-progress
// save to finish.
func (ck *checkpoint) seal() {
	ck.mu.Lock()
	ck.sealed = true
	ck.mu.Unlock()
}

// journalSpillRun records one durably published out-of-core run. Called
// from concurrent compute workers, after the run file's atomic rename.
func (ck *checkpoint) journalSpillRun(rec manifest.SpillRun) error {
	return ck.journal(func() bool { ck.man.AddSpillRun(rec); return true })
}

// journalSpillDone marks a partition's run scan complete: every run it
// will ever have is journalled, so a crash from here on resumes at the
// merge.
func (ck *checkpoint) journalSpillDone(i int) error {
	return ck.journal(func() bool { ck.man.SetSpillDone(i); return true })
}

// clearSpillClaims drops a partition's journalled spill state before a
// fresh spill attempt (a retry after a failed attempt). Files are left in
// place — the retry overwrites the same deterministic names, and anything
// beyond the new attempt's run count becomes an unjournalled orphan.
func (ck *checkpoint) clearSpillClaims(i int) error {
	return ck.journal(func() bool {
		if len(ck.man.SpillRunsFor(i)) == 0 && !ck.man.IsSpillDone(i) {
			return false
		}
		ck.man.DropSpill(i)
		return true
	})
}

// rebuilt returns how many claimed partitions failed verification.
func (ck *checkpoint) rebuilt() int { return len(ck.rebuiltSet) }
