package msp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"parahash/internal/dna"
)

// randomStream encodes count random superkmers, lengths drawn from lengths,
// and returns the closed stream, the records, each record's end offset in
// the stream, and the encoder's checksum.
func randomStream(t *testing.T, rng *rand.Rand, count int, lengths func() int) ([]byte, []Superkmer, []int, uint32) {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var sks []Superkmer
	var ends []int
	end := 0
	for i := 0; i < count; i++ {
		sk := Superkmer{Bases: randomRead(rng, lengths())}
		if rng.Intn(2) == 1 {
			sk.HasLeft, sk.Left = true, dna.Base(rng.Intn(4))
		}
		if rng.Intn(2) == 1 {
			sk.HasRight, sk.Right = true, dna.Base(rng.Intn(4))
		}
		if err := enc.Encode(sk); err != nil {
			t.Fatal(err)
		}
		end += EncodedSize(len(sk.Bases))
		sks, ends = append(sks, sk), append(ends, end)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sks, ends, enc.Sum32()
}

func sameSuperkmer(a, b Superkmer) bool {
	return bytes.Equal(basesBytes(a.Bases), basesBytes(b.Bases)) &&
		a.HasLeft == b.HasLeft && a.HasRight == b.HasRight &&
		(!a.HasLeft || a.Left == b.Left) && (!a.HasRight || a.Right == b.Right)
}

func basesBytes(bs []dna.Base) []byte {
	out := make([]byte, len(bs))
	for i, b := range bs {
		out[i] = byte(b)
	}
	return out
}

// TestDecoderMatchesEncoder decodes random streams through readers that
// deliver whole, halved and single-byte reads, with records from one base
// to several block lengths, and checks every record, BytesRead and Sum32
// against the encoder. Decoding through NextAppend into one arena yields the
// same records.
func TestDecoderMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		count, lengths := 1+rng.Intn(300), func() int { return 1 + rng.Intn(80) }
		if trial%3 == 2 {
			// Longer than the decoder's block: the buffer must grow.
			count, lengths = 1+rng.Intn(8), func() int { return 1 + rng.Intn(5*decoderBlock) }
		}
		data, want, _, sum := randomStream(t, rng, count, lengths)
		readers := map[string]func() io.Reader{
			"whole":    func() io.Reader { return bytes.NewReader(data) },
			"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
			"data-err": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		}
		for name, open := range readers {
			dec := NewDecoder(open())
			dec.RequireFooter = true
			var arena []dna.Base
			var got []Superkmer
			for {
				var sk Superkmer
				var err error
				if name == "half" {
					sk, arena, err = dec.NextAppend(arena)
				} else {
					sk, err = dec.Next()
					sk.Bases = append([]dna.Base(nil), sk.Bases...)
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("trial %d, %s reader: record %d: %v", trial, name, len(got), err)
				}
				got = append(got, sk)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d, %s reader: %d records, want %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if !sameSuperkmer(got[i], want[i]) {
					t.Fatalf("trial %d, %s reader: record %d differs", trial, name, i)
				}
			}
			if dec.BytesRead() != int64(len(data)) {
				t.Fatalf("trial %d, %s reader: BytesRead %d, want %d", trial, name, dec.BytesRead(), len(data))
			}
			if dec.Sum32() != sum {
				t.Fatalf("trial %d, %s reader: Sum32 %08x, want %08x", trial, name, dec.Sum32(), sum)
			}
			if _, err := dec.Next(); err != io.EOF {
				t.Fatalf("trial %d, %s reader: Next after the end = %v, want io.EOF", trial, name, err)
			}
		}
	}
}

// TestDecoderTruncatedAtEveryByte cuts a footered stream at every byte and
// checks the decoder returns exactly the complete records before the cut,
// counts exactly their bytes in BytesRead, and then fails typed — also
// with RequireFooter off, except at a record boundary, where a footerless
// stream legitimately ends.
func TestDecoderTruncatedAtEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data, want, ends, _ := randomStream(t, rng, 40, func() int { return 1 + rng.Intn(60) })
	for cut := 0; cut < len(data); cut++ {
		complete := 0
		for complete < len(ends) && ends[complete] <= cut {
			complete++
		}
		recordBytes := 0
		if complete > 0 {
			recordBytes = ends[complete-1]
		}
		for _, require := range []bool{true, false} {
			dec := NewDecoder(bytes.NewReader(data[:cut]))
			dec.RequireFooter = require
			n := 0
			var err error
			for {
				var sk Superkmer
				if sk, err = dec.Next(); err != nil {
					break
				}
				if !sameSuperkmer(sk, want[n]) {
					t.Fatalf("cut %d: record %d differs", cut, n)
				}
				n++
			}
			if n != complete {
				t.Fatalf("cut %d (footer required %v): decoded %d records, want %d", cut, require, n, complete)
			}
			if got := dec.BytesRead(); got != int64(recordBytes) {
				t.Fatalf("cut %d (footer required %v): BytesRead %d, want %d", cut, require, got, recordBytes)
			}
			atBoundary := cut == recordBytes
			switch {
			case !require && atBoundary:
				if err != io.EOF {
					t.Fatalf("cut %d at a record boundary, footer optional: %v, want io.EOF", cut, err)
				}
			case !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrCorruptPartition):
				t.Fatalf("cut %d (footer required %v): error %v is not typed", cut, require, err)
			}
			if again, _ := dec.Next(); again.Bases != nil {
				t.Fatalf("cut %d: Next after a terminal error returned a record", cut)
			}
		}
	}
}
