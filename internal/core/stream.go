package core

import (
	"context"
	"io"

	"parahash/internal/fastq"
	"parahash/internal/pipeline"
)

// This file provides the out-of-core entry point: constructing the graph
// from a FASTA/FASTQ stream without ever materialising the full read set.
// This matches the paper's operating assumption — "we do not assume that
// the entire graph fits into machine memory" — more faithfully than
// Build's in-memory read slice: Step 1 pulls chunks through the same
// pipeline as Build, whose read stage stays a bounded window ahead of the
// writer, and Step 2 (which never needs the reads) proceeds partition by
// partition as usual.

// DefaultStreamChunkBases is the approximate number of bases per streamed
// Step 1 chunk.
const DefaultStreamChunkBases = 1 << 22

// BuildFromReader constructs the De Bruijn graph from a plain or gzipped
// FASTA/FASTQ stream. chunkBases bounds the bases per chunk (0 selects
// DefaultStreamChunkBases). With a fully resumable checkpoint (every Step 1
// partition file verified) the stream is not read at all.
func BuildFromReader(r io.Reader, cfg Config, chunkBases int) (*Result, error) {
	return BuildFromReaderContext(context.Background(), r, cfg, chunkBases)
}

// BuildFromReaderContext is BuildFromReader under a context: canceling ctx
// stops the streamed build between chunks and partitions, the returned error
// wraps ErrCanceled, and completed checkpointed partitions stay journalled.
func BuildFromReaderContext(ctx context.Context, r io.Reader, cfg Config, chunkBases int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if chunkBases <= 0 {
		chunkBases = DefaultStreamChunkBases
	}
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		return nil, err
	}
	return buildWithStore(ctx, cfg, st, ck, streamChunks(r, chunkBases))
}

// streamChunks parses r into chunks of about chunkBases bases. The parser
// is created on the first call, so a resumed Step 1 never touches r.
func streamChunks(r io.Reader, chunkBases int) chunkSource {
	var fr *fastq.Reader
	return func() ([]fastq.Read, error) {
		if fr == nil {
			var err error
			if fr, err = fastq.NewAutoReader(r); err != nil {
				return nil, err
			}
		}
		var chunk []fastq.Read
		for bases := 0; bases < chunkBases; {
			rd, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			chunk = append(chunk, rd)
			bases += len(rd.Bases)
		}
		if len(chunk) == 0 {
			return nil, pipeline.ErrEndOfInput
		}
		return chunk, nil
	}
}
