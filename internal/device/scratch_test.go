package device

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/fastq"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
)

// Tests for the processors' reused kernel scratch: the Step 2 table, sort
// buffer and chunk boundaries, and the Step 1 scanners.

// testPartitions routes the tiny profile's superkmers into n partitions.
func testPartitions(t testing.TB, n int) [][]msp.Superkmer {
	t.Helper()
	parts := make([][]msp.Superkmer, n)
	for _, sk := range gatherSuperkmers(t, testReads(t), 27, 11) {
		i := msp.Partition(sk.Minimizer, n)
		parts[i] = append(parts[i], sk)
	}
	return parts
}

func slotsFor(sks []msp.Superkmer) int {
	var kmers int64
	for _, sk := range sks {
		kmers += int64(sk.NumKmers(27))
	}
	return hashtable.SizeForKmers(kmers, 2, 0.65)
}

// construct runs one partition like core's resize loop: on ErrTableFull it
// doubles the table and retries, folding the failed attempts' counters in.
func construct(t *testing.T, p Processor, sks []msp.Superkmer, slots int) Step2Output {
	t.Helper()
	var wasted Step2Output
	for {
		out, err := p.Step2(context.Background(), sks, 27, slots)
		if errors.Is(err, hashtable.ErrTableFull) {
			wasted.LockedInserts += out.LockedInserts
			wasted.LockFreeUpdates += out.LockFreeUpdates
			wasted.Probes += out.Probes
			wasted.LockWaits += out.LockWaits
			wasted.CASFailures += out.CASFailures
			slots *= 2
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		out.LockedInserts += wasted.LockedInserts
		out.LockFreeUpdates += wasted.LockFreeUpdates
		out.Probes += wasted.Probes
		out.LockWaits += wasted.LockWaits
		out.CASFailures += wasted.CASFailures
		return out
	}
}

func sameStep2(t *testing.T, what string, got, want Step2Output) {
	t.Helper()
	if !got.Graph.Equal(want.Graph) {
		t.Fatalf("%s: graph differs from a fresh processor's", what)
	}
	g, w := got, want
	g.Graph, w.Graph = nil, nil
	if g != w {
		t.Fatalf("%s: output %+v, fresh processor %+v", what, g, w)
	}
}

// TestStep2ReuseMatchesFresh builds partitions A, B, A, ... on one processor
// — including an undersized table that overflows and is resized, and an
// attempt canceled before it starts — and checks every result and counter
// equals what a fresh processor reports for the same call.
func TestStep2ReuseMatchesFresh(t *testing.T) {
	parts := testPartitions(t, 4)
	a, b := parts[0], parts[1]
	cal := costmodel.DefaultCalibration()
	for _, backend := range hashtable.Backends() {
		procs := map[string]func() Processor{
			"CPU": func() Processor { return &CPU{Threads: 1, Cal: cal, Table: backend} },
			"GPU": func() Processor { return &GPU{Cal: cal, Table: backend} },
		}
		for name, fresh := range procs {
			reused := fresh()
			steps := []struct {
				what  string
				sks   []msp.Superkmer
				slots int
			}{
				{"A", a, slotsFor(a)},
				{"B", b, slotsFor(b)},
				{"A again", a, slotsFor(a)},
				{"A undersized", a, 64},
				{"A after resize", a, slotsFor(a)},
				{"B after A", b, slotsFor(b)},
			}
			for i, st := range steps {
				if i == 4 {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, err := reused.Step2(ctx, st.sks, 27, st.slots); !errors.Is(err, context.Canceled) {
						t.Fatalf("%s/%s: canceled attempt returned %v", backend, name, err)
					}
				}
				sameStep2(t, string(backend)+"/"+name+"/"+st.what,
					construct(t, reused, st.sks, st.slots), construct(t, fresh(), st.sks, st.slots))
			}
		}
	}
}

// TestProcessorConcurrentCallsMatchSolo runs two Step 1 and two Step 2
// calls on one processor at once — what an attempt the watchdog abandoned
// and its retry do — and checks each against a solo run. Under -race it
// also proves the two calls share no scratch buffer.
func TestProcessorConcurrentCallsMatchSolo(t *testing.T) {
	reads := testReads(t)
	half := len(reads) / 2
	readSets := [2][]fastq.Read{reads[:half], reads[half:]}
	parts := testPartitions(t, 2)
	cal := costmodel.DefaultCalibration()
	procs := map[string]func() Processor{
		"CPU": func() Processor { return &CPU{Threads: 2, Cal: cal, Partitions: 2} },
		"GPU": func() Processor { return &GPU{Cal: cal, Partitions: 2} },
	}
	ctx := context.Background()
	for name, fresh := range procs {
		var solo1 [2]Step1Output
		var solo2 [2]Step2Output
		for i := range 2 {
			var err error
			if solo1[i], err = fresh().Step1(ctx, readSets[i], 27, 11); err != nil {
				t.Fatal(err)
			}
			if solo2[i], err = fresh().Step2(ctx, parts[i], 27, slotsFor(parts[i])); err != nil {
				t.Fatal(err)
			}
		}
		shared := fresh()
		for round := 0; round < 3; round++ {
			var got1 [2]Step1Output
			var got2 [2]Step2Output
			var errs [4]error
			var wg sync.WaitGroup
			for i := range 2 {
				wg.Add(2)
				go func() {
					defer wg.Done()
					got1[i], errs[i] = shared.Step1(ctx, readSets[i], 27, 11)
				}()
				go func() {
					defer wg.Done()
					got2[i], errs[2+i] = shared.Step2(ctx, parts[i], 27, slotsFor(parts[i]))
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := range 2 {
				if len(got1[i].Superkmers) != len(solo1[i].Superkmers) || got1[i].Bases != solo1[i].Bases {
					t.Fatalf("%s round %d: concurrent Step1 %d differs from solo", name, round, i)
				}
				for j, sk := range got1[i].Superkmers {
					w := solo1[i].Superkmers[j]
					if sk.Minimizer != w.Minimizer || sk.Part != w.Part || !slices.Equal(sk.Bases, w.Bases) {
						t.Fatalf("%s round %d: concurrent Step1 %d superkmer %d differs from solo", name, round, i, j)
					}
				}
				if !got2[i].Graph.Equal(solo2[i].Graph) || got2[i].Distinct != solo2[i].Distinct ||
					got2[i].LockedInserts != solo2[i].LockedInserts || got2[i].LockFreeUpdates != solo2[i].LockFreeUpdates {
					t.Fatalf("%s round %d: concurrent Step2 %d differs from solo", name, round, i)
				}
			}
		}
	}
}

// TestCPUStep2SteadyStateAllocs guards the warmed Step 2 kernel: on a
// partition the size of the last one it reuses the table, sort buffer and
// chunk boundaries, so it makes a small constant number of allocations
// (goroutines, the output subgraph) and allocates far fewer bytes than one
// table.
func TestCPUStep2SteadyStateAllocs(t *testing.T) {
	sks := testPartitions(t, 4)[0]
	slots := slotsFor(sks)
	const threads = 2
	cpu := &CPU{Threads: threads, Cal: costmodel.DefaultCalibration()}
	ctx := context.Background()
	var out Step2Output
	run := func() {
		var err error
		if out, err = cpu.Step2(ctx, sks, 27, slots); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 12+2*threads {
		t.Errorf("warmed CPU.Step2 makes %v allocations per call, want at most %d", allocs, 12+2*threads)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if bytes := int64(after.TotalAlloc - before.TotalAlloc); bytes > out.TableBytes/2 {
		t.Errorf("warmed CPU.Step2 allocated %d bytes, over half its %d-byte table", bytes, out.TableBytes)
	}
}
