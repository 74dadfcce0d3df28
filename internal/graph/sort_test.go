package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"parahash/internal/dna"
)

func randomVertices(seed int64, n, k int) []Vertex {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[dna.Kmer]bool, n)
	out := make([]Vertex, 0, n)
	bases := make([]dna.Base, k)
	for len(out) < n {
		for j := range bases {
			bases[j] = dna.Base(rng.Intn(4))
		}
		canon, _ := dna.KmerFromBases(bases, k).Canonical(k)
		if seen[canon] {
			continue // vertex k-mers are unique within a subgraph
		}
		seen[canon] = true
		v := Vertex{Kmer: canon}
		for c := range v.Counts {
			v.Counts[c] = rng.Uint32() % 7
		}
		out = append(out, v)
	}
	return out
}

func TestSortParallelMatchesSort(t *testing.T) {
	for _, k := range []int{27, 33} {
		for _, n := range []int{0, 1, 100, 1<<13 - 1, 1 << 13, 3<<13 + 17} {
			for _, workers := range []int{1, 2, 3, 8, 64} {
				vs := randomVertices(int64(n)*1000+int64(workers), n, k)
				want := &Subgraph{K: k, Vertices: append([]Vertex(nil), vs...)}
				want.Sort()
				got := &Subgraph{K: k, Vertices: append([]Vertex(nil), vs...)}
				got.SortParallel(workers)
				if !got.Equal(want) {
					t.Fatalf("k=%d n=%d workers=%d: SortParallel differs from Sort", k, n, workers)
				}
			}
		}
	}
}

// BenchmarkSortParallel sorts one Step 2 partition's worth of vertices:
// about 30K, the per-partition size of a 1.9M-vertex graph in 64
// partitions.
func BenchmarkSortParallel(b *testing.B) {
	const n = 30000
	for _, k := range []int{27, 33} {
		vs := randomVertices(99, n, k)
		scratch := make([]Vertex, len(vs))
		for _, workers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("k=%d/workers=%d", k, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(scratch, vs)
					g := &Subgraph{K: k, Vertices: scratch}
					g.SortParallel(workers)
				}
			})
		}
	}
}
