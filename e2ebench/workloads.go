package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/obs"
	"parahash/internal/simulate"
)

// Construction parameters shared by every workload: the paper's k=27, P=11
// and 64 partitions, which are also the CLI defaults.
const (
	benchK          = 27
	benchP          = 11
	benchPartitions = 64
	// benchThreads matches the 2-CPU hosts the benchmark is sized for.
	benchThreads = 2
	// spillBudgetBytes is small enough that every partition of the dup
	// input predicts a larger hash table and goes through the sort-merge
	// spill path with several runs each.
	spillBudgetBytes = 1 << 20
)

// inputSpec describes a seeded synthetic read set.
type inputSpec struct {
	name       string
	genomeSize int
	readLength int
	numReads   int
	lambda     float64
}

var (
	// dupInput has 80x coverage and almost no errors, so nearly every k-mer
	// repeats a vertex already in the table.
	dupInput = inputSpec{name: "dup", genomeSize: 125_000, readLength: 101, numReads: 100_000, lambda: 0.1}
	// distinctInput has 40x coverage and 3 errors per read, so about half
	// of all k-mers are distinct vertices and the output graph is large.
	distinctInput = inputSpec{name: "distinct", genomeSize: 125_000, readLength: 124, numReads: 40_000, lambda: 3}
)

// profile returns the simulation profile of the input for one seed.
func (in inputSpec) profile(seed int64) simulate.Profile {
	return simulate.Profile{
		Name:        in.name,
		GenomeSize:  in.genomeSize,
		ReadLength:  in.readLength,
		NumReads:    in.numReads,
		ErrorLambda: in.lambda,
		Seed:        seed,
	}
}

// workload is one CLI configuration over one generated input.
type workload struct {
	name  string
	input inputSpec
	// threads is the CLI -threads value; workers > 0 adds -workers and the
	// -checkpoint-dir it requires, which puts the partition store on disk.
	threads int
	workers int
	// spill adds -partition-mem-budget.
	spill bool
	// guard asserts the workload's defining property on the metrics of an
	// untimed CLI run and describes the measured property.
	guard func(m *obs.BuildMetrics) (string, error)
}

// workloads lists the benchmark's workloads. Each stresses a different
// layer: dup-heavy the Step 1 scan and lock-free table updates,
// distinct-heavy locked inserts plus collect/sort/merge/serialize,
// spill-mem the out-of-core sort-merge path that bypasses the table, and
// dist-2w the distributed coordinator, its worker processes and the disk
// store. spill-mem keeps its runs in the in-memory store: with
// -checkpoint-dir every run, partition and manifest update is fsynced, and
// on a shared disk that made its wall time vary by a third between runs.
var workloads = []workload{
	{name: "dup-heavy", input: dupInput, threads: benchThreads, guard: guardDupShare(0.9, true)},
	{name: "distinct-heavy", input: distinctInput, threads: benchThreads, guard: guardDupShare(0.6, false)},
	{name: "spill-mem", input: dupInput, threads: benchThreads, spill: true, guard: guardAllSpilled},
	{name: "dist-2w", input: distinctInput, threads: 1, workers: 2, guard: guardDistClean},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cliArgs is the exact argv (without the program name) a user runs for the
// workload.
func (w workload) cliArgs(in, out, ckDir string) []string {
	args := []string{
		"-in", in, "-out", out,
		"-k", strconv.Itoa(benchK), "-p", strconv.Itoa(benchP),
		"-partitions", strconv.Itoa(benchPartitions),
		"-threads", strconv.Itoa(w.threads),
	}
	if w.spill {
		args = append(args, "-partition-mem-budget", strconv.Itoa(spillBudgetBytes))
	}
	if w.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(w.workers), "-checkpoint-dir", ckDir)
	}
	return args
}

func dupShare(m *obs.BuildMetrics) float64 {
	if m.Totals.TotalKmers == 0 {
		return 0
	}
	return float64(m.Totals.DuplicateVertices) / float64(m.Totals.TotalKmers)
}

// guardDupShare checks the share of k-mers that repeat a vertex: at least
// bound when high, at most bound otherwise.
func guardDupShare(bound float64, high bool) func(*obs.BuildMetrics) (string, error) {
	return func(m *obs.BuildMetrics) (string, error) {
		share := dupShare(m)
		desc := fmt.Sprintf("duplicate share %.3f (%d of %d k-mers), %d distinct vertices",
			share, m.Totals.DuplicateVertices, m.Totals.TotalKmers, m.Totals.DistinctVertices)
		if high && share < bound {
			return desc, fmt.Errorf("duplicate share %.3f below %.2f", share, bound)
		}
		if !high && share > bound {
			return desc, fmt.Errorf("duplicate share %.3f above %.2f", share, bound)
		}
		return desc, nil
	}
}

func guardAllSpilled(m *obs.BuildMetrics) (string, error) {
	desc := fmt.Sprintf("%d of %d partitions spilled, %d runs, %d merge passes, %d table inserts",
		m.Spill.SpilledPartitions, m.Run.Partitions, m.Spill.SpillRuns, m.Spill.MergePasses, m.HashTable.Inserts)
	if m.Spill.SpilledPartitions != m.Run.Partitions {
		return desc, fmt.Errorf("only %d of %d partitions spilled", m.Spill.SpilledPartitions, m.Run.Partitions)
	}
	if m.HashTable.Inserts != 0 || m.HashTable.Updates != 0 {
		return desc, fmt.Errorf("hash table used on the spill path (%d inserts, %d updates)",
			m.HashTable.Inserts, m.HashTable.Updates)
	}
	return desc, nil
}

func guardDistClean(m *obs.BuildMetrics) (string, error) {
	if m.Dist == nil {
		return "", fmt.Errorf("metrics carry no distributed block")
	}
	d := m.Dist
	desc := fmt.Sprintf("%d lease grants, %d reassignments, %d fenced writes",
		d.LeaseGrants, d.Reassignments, d.FencedWrites)
	if d.LeaseGrants <= 0 || d.Reassignments != 0 || d.FencedWrites != 0 {
		return desc, fmt.Errorf("distributed run was not fault-free: %s", desc)
	}
	return desc, nil
}

// preparedInput is a generated FASTQ file with its oracle digest.
type preparedInput struct {
	path   string
	bytes  int64
	bases  int64
	oracle string
	// setup is the measured duration of each generate+write+read round.
	setup []time.Duration
}

// prepareInput generates the seeded reads, writes them as FASTQ to path and
// reads the file back once, reps times; each round is one setup sample.
// The oracle digest of the last round's reads is computed afterwards,
// outside the timed rounds.
func prepareInput(spec inputSpec, seed int64, path string, reps int) (*preparedInput, error) {
	p := &preparedInput{path: path}
	var reads []fastq.Read
	for r := 0; r < reps; r++ {
		start := time.Now()
		d, err := simulate.Generate(spec.profile(seed))
		if err != nil {
			return nil, err
		}
		if err := writeFASTQ(path, d.Reads); err != nil {
			return nil, err
		}
		n, err := readFile(path)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(start))
		p.bytes, reads = n, d.Reads
	}
	for _, rd := range reads {
		p.bases += int64(len(rd.Bases))
	}
	p.oracle = graphDigest(graph.BuildNaive(reads, benchK))
	return p, nil
}

func writeFASTQ(path string, reads []fastq.Read) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fastq.WriteFASTQ(f, reads); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readFile reads the whole file once, leaving it in the page cache.
func readFile(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return io.Copy(io.Discard, bufio.NewReaderSize(f, 1<<20))
}

// graphDigest is the SHA-256 of the graph's serialized form, which is what
// the CLI writes to -out.
func graphDigest(g *graph.Subgraph) string {
	h := sha256.New()
	if err := g.Write(h); err != nil {
		// Writing to a hash cannot fail; an error here is a serializer bug.
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fileDigest is the SHA-256 of a file's content.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
