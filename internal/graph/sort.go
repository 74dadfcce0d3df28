package graph

import "parahash/internal/dna"

// SortParallel orders the vertices canonically with the radix sort of
// dna.SortByKmer on up to workers goroutines, at every worker count. Vertex
// k-mers are unique within a subgraph, so the result is exactly Sort's.
func (g *Subgraph) SortParallel(workers int) {
	dna.SortByKmer(g.Vertices, make([]Vertex, len(g.Vertices)), workers, vertexKmer)
}

func vertexKmer(v *Vertex) dna.Kmer { return v.Kmer }
