package msp

import "parahash/internal/dna"

// Spill records are the unit of the out-of-core Step 2 path: instead of
// inserting each k-mer observation into an in-memory hash table, the
// external backend flattens a partition's superkmers into fixed-size
// (canonical k-mer, edge-bits) records, sorts them in bounded buffers and
// spills the sorted runs to disk for a later streaming merge. The record
// carries exactly the information hashtable.InsertEdge consumes — the
// canonical vertex plus which (side, base) counters to bump — so the merge
// reproduces the in-core table's counters bit for bit.

// SpillRecordBytes is the memory charged per buffered spill record: the
// 16-byte packed k-mer, the edge byte, and struct padding.
const SpillRecordBytes = 24

// SpillRecord is one canonical k-mer observation in spill form.
type SpillRecord struct {
	// Kmer is the canonical k-mer (the graph vertex).
	Kmer dna.Kmer
	// Edge packs the KmerEdge neighbour bases: bit 0 set when a left
	// neighbour exists, bit 1 when a right one does, bits 2-3 the left base
	// and bits 4-5 the right base — the same flag layout the superkmer file
	// format uses for its extension bases.
	Edge uint8
}

const (
	spillHasLeft  = 1 << 0
	spillHasRight = 1 << 1
)

// EncodeSpillEdge packs a KmerEdge's neighbour pair (NoBase for an absent
// side) into the spill edge byte.
func EncodeSpillEdge(left, right int8) uint8 {
	var e uint8
	if left != NoBase {
		e = spillHasLeft | uint8(left&3)<<2
	}
	if right != NoBase {
		e |= spillHasRight | uint8(right&3)<<4
	}
	return e
}

// DecodeSpillEdge unpacks the edge byte back into the KmerEdge neighbour
// pair, NoBase for absent sides.
func DecodeSpillEdge(e uint8) (left, right int8) {
	left, right = NoBase, NoBase
	if e&spillHasLeft != 0 {
		left = int8(e >> 2 & 3)
	}
	if e&spillHasRight != 0 {
		right = int8(e >> 4 & 3)
	}
	return left, right
}

// AppendSpillRecords flattens every k-mer instance of the superkmer into
// spill records appended to dst. It allocates only when dst's capacity is
// exhausted, so a run buffer sized to the partition budget is filled with
// zero allocations.
func AppendSpillRecords(dst []SpillRecord, sk Superkmer, k int) []SpillRecord {
	ForEachKmerEdge(sk, k, func(e KmerEdge) {
		dst = append(dst, SpillRecord{Kmer: e.Canon, Edge: EncodeSpillEdge(e.Left, e.Right)})
	})
	return dst
}

// SortSpillRecords orders recs ascending by canonical k-mer with the radix
// sort of dna.SortByKmer, using up to workers goroutines and the
// caller-provided scratch buffer (len(scratch) must be >= len(recs)). A
// reused (records, scratch) buffer pair sorts every spill run with zero
// allocations on the sequential path. Ties (duplicate k-mers) keep their
// input order; the downstream merge sums their counters commutatively, so
// the aggregate is deterministic either way.
func SortSpillRecords(recs, scratch []SpillRecord, workers int) {
	dna.SortByKmer(recs, scratch, workers, spillKmer)
}

func spillKmer(r *SpillRecord) dna.Kmer { return r.Kmer }
