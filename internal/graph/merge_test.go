package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// mergeOracle is the join + sort + collapse algorithm Merge replaced: it
// concatenates every input, sorts the whole graph and sums the counters of
// equal k-mers.
func mergeOracle(k int, subs ...*Subgraph) *Subgraph {
	var all []Vertex
	for _, s := range subs {
		all = append(all, s.Vertices...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Kmer.Less(all[j].Kmer) })
	out := all[:0]
	for _, v := range all {
		if n := len(out); n > 0 && out[n-1].Kmer == v.Kmer {
			for j := range v.Counts {
				out[n-1].Counts[j] += v.Counts[j]
			}
		} else {
			out = append(out, v)
		}
	}
	return &Subgraph{K: k, Vertices: out}
}

func cloneSubgraphs(subs []*Subgraph) []*Subgraph {
	out := make([]*Subgraph, len(subs))
	for i, s := range subs {
		out[i] = &Subgraph{K: s.K, Vertices: append([]Vertex(nil), s.Vertices...)}
	}
	return out
}

// splitVertices deals vs round-robin-at-random into n subgraphs, each
// sorted when sorted is set.
func splitVertices(rng *rand.Rand, vs []Vertex, k, n int, sorted bool) []*Subgraph {
	subs := make([]*Subgraph, n)
	for i := range subs {
		subs[i] = &Subgraph{K: k}
	}
	for _, v := range vs {
		s := subs[rng.Intn(n)]
		s.Vertices = append(s.Vertices, v)
	}
	if sorted {
		for _, s := range subs {
			s.Sort()
		}
	}
	return subs
}

func TestMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 27
	disjoint := randomVertices(1, 5000, k)
	// Overlap: a second vertex set sharing half its k-mers with the first,
	// with different counters, so equal k-mers must be summed.
	overlap := randomVertices(2, 2500, k)
	for i := range overlap {
		if i%2 == 0 {
			overlap[i].Kmer = disjoint[rng.Intn(len(disjoint))].Kmer
		}
	}
	cases := map[string][]*Subgraph{
		"no inputs":       nil,
		"empty inputs":    {{K: k}, {K: k}, {K: k}},
		"single sorted":   splitVertices(rng, disjoint, k, 1, true),
		"single unsorted": splitVertices(rng, disjoint, k, 1, false),
		"sorted disjoint": splitVertices(rng, disjoint, k, 64, true),
		"unsorted":        splitVertices(rng, disjoint, k, 7, false),
		"overlapping": append(splitVertices(rng, disjoint, k, 5, true),
			splitVertices(rng, overlap, k, 3, true)...),
		"overlapping unsorted": append(splitVertices(rng, disjoint, k, 4, false),
			splitVertices(rng, overlap, k, 4, false)...),
		"mixed with empty":            append(splitVertices(rng, disjoint, k, 3, true), &Subgraph{K: k}),
		"duplicates within one input": {{K: k, Vertices: append(append([]Vertex(nil), overlap...), overlap[:100]...)}},
	}
	for name, subs := range cases {
		before := cloneSubgraphs(subs)
		got, err := Merge(k, subs...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := mergeOracle(k, cloneSubgraphs(subs)...); !got.Equal(want) {
			t.Errorf("%s: Merge differs from the join+sort+collapse oracle (%d vs %d vertices)",
				name, got.NumVertices(), want.NumVertices())
		}
		for i := range subs {
			if !subs[i].Equal(before[i]) {
				t.Errorf("%s: Merge modified input %d", name, i)
			}
		}
	}
}

// BenchmarkMerge merges 64 sorted, disjoint partitions of 30K vertices:
// the shape of a 1.9M-vertex Step 2 output.
func BenchmarkMerge(b *testing.B) {
	const k, parts, per = 27, 64, 30000
	subs := splitVertices(rand.New(rand.NewSource(12)), randomVertices(13, parts*per, k), k, parts, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(k, subs...); err != nil {
			b.Fatal(err)
		}
	}
}
