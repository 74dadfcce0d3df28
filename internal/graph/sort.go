package graph

import "parahash/internal/dna"

// SortParallel orders the vertices canonically with the radix sort of
// dna.SortByKmer on up to workers goroutines, at every worker count. Vertex
// k-mers are unique within a subgraph, so the result is exactly Sort's.
func (g *Subgraph) SortParallel(workers int) {
	g.SortParallelWith(workers, nil)
}

// SortParallelWith is SortParallel using scratch as the sort's buffer when
// its capacity suffices, and returns the buffer to keep for the next sort —
// scratch itself, or a larger one it allocated — so a caller sorting one
// subgraph after another allocates the buffer once.
func (g *Subgraph) SortParallelWith(workers int, scratch []Vertex) []Vertex {
	if cap(scratch) < len(g.Vertices) {
		scratch = make([]Vertex, len(g.Vertices))
	}
	dna.SortByKmer(g.Vertices, scratch[:len(g.Vertices)], workers, vertexKmer)
	return scratch
}

func vertexKmer(v *Vertex) dna.Kmer { return v.Kmer }
