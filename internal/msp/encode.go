package msp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"parahash/internal/dna"
)

// The on-disk superkmer record format (all values little-endian):
//
//	uvarint  n      — number of bases in the superkmer (n >= K)
//	byte     flags  — bit0 HasLeft, bit1 HasRight,
//	                  bits 2-3 Left base, bits 4-5 Right base
//	bytes    packed — ceil(n/4) bytes of 2-bit bases, 4 per byte, the
//	                  first base in the two most significant bits
//
// This is the paper's encoded output: compared to one character per base it
// cuts partition storage to roughly 1/4 (§III-B), which the encoding
// ablation benchmark verifies.
//
// A stream finalised with Encoder.Close carries an integrity footer:
//
//	byte     0x00   — footer marker (impossible as a record start, since
//	                  record lengths are always >= 1)
//	uint32   crc    — IEEE CRC32 of every record byte before the marker
//
// The Decoder verifies the footer when present and surfaces a mismatch as
// ErrCorruptPartition, which the resilient pipeline treats as retryable.
// Streams without a footer (written by Flush alone) still decode, so
// pre-footer partition files remain readable; set Decoder.RequireFooter to
// reject them, turning silent truncation at a record boundary into an
// error.

// ErrCorrupt reports a structurally invalid superkmer stream.
var ErrCorrupt = errors.New("msp: corrupt superkmer stream")

// ErrCorruptPartition reports a superkmer stream that failed its end-to-end
// integrity check (CRC mismatch, damaged footer, or a missing footer when
// one is required). It is distinct from ErrCorrupt so callers can tell
// bit-level damage from structural damage; both are retryable faults for
// the resilient pipeline.
var ErrCorruptPartition = errors.New("msp: partition failed integrity check")

// EncodedSize returns the exact record size in bytes for a superkmer with n
// bases (varint + flags + packed payload). The per-stream footer written by
// Encoder.Close (FooterSize bytes) is not included.
func EncodedSize(n int) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], uint64(n)) + 1 + (n+3)/4
}

// FooterSize is the byte size of the integrity footer Close appends.
const FooterSize = 5

// Encoder writes 2-bit encoded superkmer records to a stream.
type Encoder struct {
	w       *bufio.Writer
	scratch []byte
	crc     uint32
	closed  bool
	// Bytes counts the encoded bytes written, including the Close footer,
	// for IO accounting.
	Bytes int64
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 1<<15)}
}

// Encode appends one superkmer record.
func (e *Encoder) Encode(sk Superkmer) error {
	n := len(sk.Bases)
	need := binary.MaxVarintLen64 + 1 + (n+3)/4
	if cap(e.scratch) < need {
		e.scratch = make([]byte, need)
	}
	buf := e.scratch[:0]
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(n))]...)

	var flags byte
	if sk.HasLeft {
		flags |= 1 | byte(sk.Left&3)<<2
	}
	if sk.HasRight {
		flags |= 2 | byte(sk.Right&3)<<4
	}
	buf = append(buf, flags)

	var acc byte
	for i, b := range sk.Bases {
		acc = acc<<2 | byte(b&3)
		if i%4 == 3 {
			buf = append(buf, acc)
			acc = 0
		}
	}
	if n%4 != 0 {
		acc <<= 2 * (4 - uint(n%4))
		buf = append(buf, acc)
	}
	e.crc = crc32.Update(e.crc, crc32.IEEETable, buf)
	e.Bytes += int64(len(buf))
	_, err := e.w.Write(buf)
	return err
}

// Flush flushes buffered records to the underlying writer without
// finalising the stream.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Sum32 returns the running IEEE CRC32 of the record bytes encoded so far —
// after Close, exactly the checksum the integrity footer carries. The build
// manifest records it so a resumed build can verify a partition file
// without trusting the file's own footer alone.
func (e *Encoder) Sum32() uint32 { return e.crc }

// Close writes the integrity footer — marker byte plus the CRC32 of all
// record bytes — and flushes. No records may be encoded after Close;
// closing twice is a no-op.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var footer [FooterSize]byte
	binary.LittleEndian.PutUint32(footer[1:], e.crc)
	e.Bytes += FooterSize
	if _, err := e.w.Write(footer[:]); err != nil {
		return err
	}
	return e.w.Flush()
}

// Decoder streams superkmer records produced by Encoder. It parses records
// straight out of its own block buffer: the running CRC is folded once per
// consumed span (at each refill and at the footer) instead of once per
// record, and packed bytes unpack four bases at a time through a 256-entry
// table.
type Decoder struct {
	// RequireFooter, when set, makes a stream that ends without a verified
	// integrity footer fail with ErrCorruptPartition instead of returning
	// a clean io.EOF. Enable it for streams known to be written by
	// Encoder.Close so that truncation at a record boundary is detected.
	RequireFooter bool

	r io.Reader
	// buf[pos:end] is read but not yet consumed; buf[sumPos:pos] is
	// consumed record bytes not yet folded into crc.
	buf              []byte
	pos, end, sumPos int
	rerr             error // the reader's terminal error (io.EOF at its end)
	crc              uint32
	bytes            int64
	bases            []dna.Base
	err              error // terminal result, returned by every later Next
}

// decoderBlock is the Decoder's initial block buffer size; a record longer
// than a block grows the buffer as its bytes arrive.
const decoderBlock = 1 << 15

// unpack4 maps a packed byte to its four bases, first base in the two most
// significant bits.
var unpack4 = func() (t [256][4]dna.Base) {
	for b := range t {
		for j := range t[b] {
			t[b][j] = dna.Base(b >> (6 - 2*j) & 3)
		}
	}
	return t
}()

// BytesRead reports the encoded bytes consumed so far — every complete
// record plus a footer read in full — for IO accounting symmetrical with
// Encoder.Bytes.
func (d *Decoder) BytesRead() int64 { return d.bytes }

// Sum32 returns the running IEEE CRC32 of the record bytes decoded so far.
// After a stream ends cleanly with a verified footer it equals the
// encoder's Sum32, letting resume verification compare the decoded stream
// against an independently recorded checksum.
func (d *Decoder) Sum32() uint32 {
	d.foldCRC()
	return d.crc
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, decoderBlock)}
}

// Next decodes the next record. The returned superkmer's Bases slice is
// owned by the Decoder and overwritten by the next call; copy it to retain,
// or decode with NextAppend instead.
// The Minimizer field is not stored on disk and is returned as zero.
// It returns io.EOF at a clean end of stream — after a verified footer, or
// at a record boundary for footerless streams unless RequireFooter is set.
// Errors are terminal: every later call returns the same error.
func (d *Decoder) Next() (Superkmer, error) {
	sk, bases, err := d.NextAppend(d.bases[:0])
	d.bases = bases
	return sk, err
}

// NextAppend is Next decoding into a caller-owned arena: the record's bases
// are appended to dst, the returned superkmer's Bases alias the appended
// span, and the extended slice is returned. Decoding a whole partition
// through one arena makes no per-record allocation; a record that outgrows
// the arena's capacity moves it, which leaves earlier records aliasing the
// old, still valid array.
func (d *Decoder) NextAppend(dst []dna.Base) (Superkmer, []dna.Base, error) {
	if d.err != nil {
		return Superkmer{}, dst, d.err
	}
	sk, dst, err := d.decode(dst)
	if err != nil {
		d.err = err
	}
	return sk, dst, err
}

func (d *Decoder) decode(dst []dna.Base) (Superkmer, []dna.Base, error) {
	if !d.fill(1) {
		if err := d.readErr(); err != nil {
			return Superkmer{}, dst, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if d.RequireFooter {
			return Superkmer{}, dst, fmt.Errorf("%w: stream ends without integrity footer", ErrCorruptPartition)
		}
		return Superkmer{}, dst, io.EOF
	}
	if d.buf[d.pos] == 0 {
		return Superkmer{}, dst, d.verifyFooter()
	}

	// A stream ending inside the varint leaves Uvarint too few bytes,
	// which it reports as w == 0.
	d.fill(binary.MaxVarintLen64)
	n64, w := binary.Uvarint(d.buf[d.pos:d.end])
	switch {
	case w < 0:
		return Superkmer{}, dst, fmt.Errorf("%w: record length varint overflows", ErrCorrupt)
	case w == 0:
		return Superkmer{}, dst, fmt.Errorf("%w: truncated record length", ErrCorrupt)
	case n64 == 0 || n64 > 1<<30:
		return Superkmer{}, dst, fmt.Errorf("%w: implausible superkmer length %d", ErrCorrupt, n64)
	}
	n := int(n64)
	size := w + 1 + (n+3)/4 // varint + flags + packed bases
	if !d.fill(size) {
		return Superkmer{}, dst, fmt.Errorf("%w: truncated record (%d bases declared)", ErrCorrupt, n)
	}
	flags, packed := d.buf[d.pos+w], d.buf[d.pos+w+1:d.pos+size]
	d.pos += size
	d.bytes += int64(size)

	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	bases := dst[at:]
	full := n / 4
	for i, b := range packed[:full] {
		*(*[4]dna.Base)(bases[4*i:]) = unpack4[b]
	}
	if rem := n % 4; rem > 0 {
		copy(bases[4*full:], unpack4[packed[full]][:rem])
	}
	sk := Superkmer{Bases: bases}
	if flags&1 != 0 {
		sk.HasLeft = true
		sk.Left = dna.Base(flags >> 2 & 3)
	}
	if flags&2 != 0 {
		sk.HasRight = true
		sk.Right = dna.Base(flags >> 4 & 3)
	}
	return sk, dst, nil
}

// fill reads until at least need unconsumed bytes are buffered, reporting
// false when the stream ends first. The buffer grows only once it is full
// of unconsumed bytes, so its size stays bounded by what the stream has
// actually delivered, whatever length a corrupt record declares.
func (d *Decoder) fill(need int) bool {
	for empty := 0; d.end-d.pos < need && d.rerr == nil; {
		if d.end == len(d.buf) {
			d.foldCRC()
			if d.pos > 0 {
				d.end = copy(d.buf, d.buf[d.pos:d.end])
				d.pos, d.sumPos = 0, 0
			} else {
				d.buf = append(d.buf, make([]byte, len(d.buf))...)
			}
		}
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		switch {
		case err != nil:
			d.rerr = err
		case n == 0:
			if empty++; empty == 100 {
				d.rerr = io.ErrNoProgress
			}
		}
	}
	return d.end-d.pos >= need
}

// readErr returns the reader's failure, if the stream stopped on one
// rather than at its end.
func (d *Decoder) readErr() error {
	if d.rerr == io.EOF {
		return nil
	}
	return d.rerr
}

// foldCRC folds the consumed record bytes not yet checksummed into crc.
func (d *Decoder) foldCRC() {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.buf[d.sumPos:d.pos])
	d.sumPos = d.pos
}

// verifyFooter checks the CRC footer at pos against the running record CRC
// and enforces a clean end of stream.
func (d *Decoder) verifyFooter() error {
	d.foldCRC()
	if !d.fill(FooterSize) {
		return fmt.Errorf("%w: truncated integrity footer", ErrCorruptPartition)
	}
	want := binary.LittleEndian.Uint32(d.buf[d.pos+1 : d.pos+FooterSize])
	d.pos += FooterSize
	d.sumPos = d.pos
	d.bytes += FooterSize
	if want != d.crc {
		return fmt.Errorf("%w: crc 0x%08x, footer says 0x%08x", ErrCorruptPartition, d.crc, want)
	}
	if d.fill(1) || d.readErr() != nil {
		return fmt.Errorf("%w: trailing data after integrity footer", ErrCorruptPartition)
	}
	return io.EOF
}

// PlainEncodedSize returns the record size of the non-encoded (one character
// per base) representation used by the original MSP implementation, for the
// encoding-ablation comparison: bases + flags + separator.
func PlainEncodedSize(n int) int { return n + 4 }
