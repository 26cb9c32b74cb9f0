// Package tracestore implements the v2 trace-corpus container: a
// chunk-framed, flate-compressed, seekable on-disk format for memory-access
// traces, a bounded-memory streaming reader with a parallel decode
// pipeline, an instruction-window engine that fast-forwards through the
// chunk index, and a content-addressed corpus cache that persists generated
// workload traces across runs.
//
// # File layout
//
//	offset 0:  magic "BERTITR2" (8 bytes)
//	           chunk 0 payload (flate-compressed record block)
//	           chunk 1 payload
//	           ...
//	footer:    index: one 40-byte entry per chunk
//	             u64 offset  u32 compLen  u32 rawLen  u32 records
//	             u32 crc32c(raw payload)  u64 startRecord  u64 startInstr
//	           meta: u16 version  u32 chunkRecords  u64 records
//	             u64 instructions  u64 lineFootprint  u16 nameLen  name
//	trailer:   u64 footerOff  u32 chunkCount  u32 metaLen
//	           u32 crc32c(footer)  magic "BERTIEN2" (28 bytes)
//
// All fixed-width fields are little-endian. Each chunk holds up to
// ChunkRecords records, each encoded as varint(ip delta), varint(addr
// delta), kind byte, uvarint(NonMemBefore), depdist byte, with the delta
// state reset at every chunk boundary, so any chunk decodes independently
// of the others — that independence is what makes the file seekable and
// the decode pipeline parallel. The index entry's startInstr
// is the cumulative instruction count (memory records plus their
// NonMemBefore runs) retired before the chunk's first record; the window
// engine binary-searches it to fast-forward without decompressing skipped
// chunks.
package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/bertisim/berti/internal/trace"
)

const (
	// FormatVersion is the container version this package reads and writes.
	FormatVersion = 2
	// DefaultChunkRecords is the records-per-chunk used when Meta does not
	// override it. 64K records compress to ~100-300 KB per chunk: large
	// enough to amortize flate overhead, small enough that the streaming
	// reader's resident window stays in the low megabytes.
	DefaultChunkRecords = 1 << 16
	// MaxChunkRecords bounds ChunkRecords so a corrupt index cannot force
	// an unbounded per-chunk allocation.
	MaxChunkRecords = 1 << 20
	// MaxRecords bounds the record count an (untrusted) container may
	// claim.
	MaxRecords = 1 << 31
	// maxMetaLen bounds the meta block (the workload name is the only
	// variable-length field).
	maxMetaLen = 1 << 12
	// trailerLen is the fixed trailer size.
	trailerLen = 28
	// indexEntryLen is the per-chunk index entry size.
	indexEntryLen = 40
	// minRecordBytes / maxRecordBytes bound one encoded record (varint ip +
	// varint addr + kind byte + uvarint nonmem + depdist byte); the decoder
	// cross-checks claimed record counts against claimed payload sizes with
	// them, so allocations stay proportional to real data.
	minRecordBytes = 5
	maxRecordBytes = binary.MaxVarintLen64 + binary.MaxVarintLen64 + 1 + binary.MaxVarintLen32 + 1
)

var (
	headMagic = [8]byte{'B', 'E', 'R', 'T', 'I', 'T', 'R', '2'}
	tailMagic = [8]byte{'B', 'E', 'R', 'T', 'I', 'E', 'N', '2'}
)

// castagnoli is the CRC32-C polynomial (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// HeadMagicLen is the length of the v2 file magic (fault injection
// preserves it so damage lands past the header).
const HeadMagicLen = len(headMagic)

// Sentinel causes wrapped in *FormatError by the decoder.
var (
	// ErrNotV2 marks a stream that does not start with the v2 magic,
	// including the retired v1 flat stream.
	ErrNotV2 = errors.New("tracestore: not a v2 trace container (v1 flat streams are no longer read; regenerate the trace with tracegen)")
	// ErrBadTrailer marks a missing or damaged trailer.
	ErrBadTrailer = errors.New("tracestore: bad trailer")
	// ErrChecksum marks a CRC mismatch (footer or chunk payload).
	ErrChecksum = errors.New("tracestore: checksum mismatch")
)

// FormatError reports a corrupt or truncated container, locating the damage
// by section, chunk, and byte offset.
type FormatError struct {
	// Section names the damaged structure ("magic", "trailer", "footer",
	// "meta", "index", "chunk").
	Section string
	// Chunk is the chunk index for Section=="chunk" (-1 otherwise).
	Chunk int
	// Offset is the file offset of the damaged structure.
	Offset int64
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *FormatError) Error() string {
	if e.Chunk >= 0 {
		return fmt.Sprintf("tracestore: chunk %d at byte %d: %v", e.Chunk, e.Offset, e.Err)
	}
	return fmt.Sprintf("tracestore: %s at byte %d: %v", e.Section, e.Offset, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *FormatError) Unwrap() error { return e.Err }

// Meta describes a stored trace. Records, Instructions, and LineFootprint
// are computed by the Writer; on input only Workload and ChunkRecords are
// consulted.
type Meta struct {
	// Workload is the generating workload's registry name (informational).
	Workload string
	// ChunkRecords is the records-per-chunk framing (0 selects
	// DefaultChunkRecords).
	ChunkRecords uint32
	// Records is the total record count.
	Records uint64
	// Instructions is the total instruction count (records plus their
	// NonMemBefore runs), the unit the window engine addresses.
	Instructions uint64
	// LineFootprint is the number of distinct 64-byte lines touched.
	LineFootprint uint64
}

// chunkInfo is one decoded index entry.
type chunkInfo struct {
	Offset      int64
	CompLen     uint32
	RawLen      uint32
	Records     uint32
	CRC         uint32
	StartRecord uint64
	StartInstr  uint64
}

// lineShift mirrors cache.LineShift (64-byte lines) without importing the
// cache package into the storage layer.
const lineShift = 6

// Writer streams records into a v2 container. Append cannot return an
// error, so write failures are sticky: check Err (or the Close return)
// after appending. The output writer receives one Write per chunk plus the
// footer, so wrapping it in a bufio.Writer is unnecessary.
type Writer struct {
	w      io.Writer
	off    int64
	meta   Meta
	recs   []trace.Record
	chunks []chunkInfo
	lines  map[uint64]struct{}
	comp   *flate.Writer
	raw    bytes.Buffer
	cbuf   bytes.Buffer
	err    error
	closed bool
}

// NewWriter starts a v2 container on w. Only meta.Workload and
// meta.ChunkRecords are read; counts are computed as records arrive.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if meta.ChunkRecords == 0 {
		meta.ChunkRecords = DefaultChunkRecords
	}
	if meta.ChunkRecords > MaxChunkRecords {
		return nil, fmt.Errorf("tracestore: chunk size %d exceeds limit %d", meta.ChunkRecords, MaxChunkRecords)
	}
	if len(meta.Workload) > maxMetaLen-32 {
		return nil, fmt.Errorf("tracestore: workload name of %d bytes too long", len(meta.Workload))
	}
	meta.Records, meta.Instructions, meta.LineFootprint = 0, 0, 0
	tw := &Writer{
		w:     w,
		meta:  meta,
		recs:  make([]trace.Record, 0, meta.ChunkRecords),
		lines: make(map[uint64]struct{}),
	}
	if _, err := w.Write(headMagic[:]); err != nil {
		return nil, err
	}
	tw.off = int64(len(headMagic))
	return tw, nil
}

// Err returns the first write failure (nil while healthy).
func (w *Writer) Err() error { return w.err }

// Append adds one record to the container. After a write failure it
// becomes a no-op; the error is reported by Err and Close.
func (w *Writer) Append(r trace.Record) {
	if w.err != nil || w.closed {
		return
	}
	w.recs = append(w.recs, r)
	w.meta.Records++
	w.meta.Instructions += uint64(r.NonMemBefore) + 1
	w.lines[r.Addr>>lineShift] = struct{}{}
	if len(w.recs) == int(w.meta.ChunkRecords) {
		w.err = w.flushChunk()
	}
}

// flushChunk encodes, compresses, and writes the buffered records as one
// chunk, recording its index entry.
func (w *Writer) flushChunk() error {
	if len(w.recs) == 0 {
		return nil
	}
	w.raw.Reset()
	var prevIP, prevAddr uint64
	var chunkInstr uint64
	var scratch [binary.MaxVarintLen64]byte
	for i := range w.recs {
		r := &w.recs[i]
		n := binary.PutVarint(scratch[:], int64(r.IP-prevIP))
		w.raw.Write(scratch[:n])
		n = binary.PutVarint(scratch[:], int64(r.Addr-prevAddr))
		w.raw.Write(scratch[:n])
		w.raw.WriteByte(byte(r.Kind))
		n = binary.PutUvarint(scratch[:], uint64(r.NonMemBefore))
		w.raw.Write(scratch[:n])
		w.raw.WriteByte(r.DepDist)
		prevIP, prevAddr = r.IP, r.Addr
		chunkInstr += uint64(r.NonMemBefore) + 1
	}
	raw := w.raw.Bytes()
	crc := crc32.Checksum(raw, castagnoli)
	w.cbuf.Reset()
	if w.comp == nil {
		var err error
		if w.comp, err = flate.NewWriter(&w.cbuf, flate.BestSpeed); err != nil {
			return err
		}
	} else {
		w.comp.Reset(&w.cbuf)
	}
	if _, err := w.comp.Write(raw); err != nil {
		return err
	}
	if err := w.comp.Close(); err != nil {
		return err
	}
	comp := w.cbuf.Bytes()
	if n, err := w.w.Write(comp); err != nil {
		return err
	} else if n < len(comp) {
		return io.ErrShortWrite
	}
	w.chunks = append(w.chunks, chunkInfo{
		Offset:      w.off,
		CompLen:     uint32(len(comp)),
		RawLen:      uint32(len(raw)),
		Records:     uint32(len(w.recs)),
		CRC:         crc,
		StartRecord: w.meta.Records - uint64(len(w.recs)),
		StartInstr:  w.meta.Instructions - chunkInstr,
	})
	w.off += int64(len(comp))
	w.recs = w.recs[:0]
	return nil
}

// Close flushes the final partial chunk and writes the footer and trailer.
// It returns the first error encountered anywhere in the stream.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if w.err = w.flushChunk(); w.err != nil {
		return w.err
	}
	w.meta.LineFootprint = uint64(len(w.lines))

	var footer bytes.Buffer
	var b [8]byte
	put32 := func(v uint32) { binary.LittleEndian.PutUint32(b[:4], v); footer.Write(b[:4]) }
	put64 := func(v uint64) { binary.LittleEndian.PutUint64(b[:8], v); footer.Write(b[:8]) }
	for i := range w.chunks {
		c := &w.chunks[i]
		put64(uint64(c.Offset))
		put32(c.CompLen)
		put32(c.RawLen)
		put32(c.Records)
		put32(c.CRC)
		put64(c.StartRecord)
		put64(c.StartInstr)
	}
	metaStart := footer.Len()
	binary.LittleEndian.PutUint16(b[:2], FormatVersion)
	footer.Write(b[:2])
	put32(w.meta.ChunkRecords)
	put64(w.meta.Records)
	put64(w.meta.Instructions)
	put64(w.meta.LineFootprint)
	binary.LittleEndian.PutUint16(b[:2], uint16(len(w.meta.Workload)))
	footer.Write(b[:2])
	footer.WriteString(w.meta.Workload)
	metaLen := footer.Len() - metaStart

	crc := crc32.Checksum(footer.Bytes(), castagnoli)
	put64(uint64(w.off)) // footerOff: chunks end where the footer begins
	put32(uint32(len(w.chunks)))
	put32(uint32(metaLen))
	put32(crc)
	footer.Write(tailMagic[:])

	out := footer.Bytes()
	if n, err := w.w.Write(out); err != nil {
		w.err = err
	} else if n < len(out) {
		w.err = io.ErrShortWrite
	}
	return w.err
}

// Write encodes an in-memory trace as a complete v2 container on w.
func Write(w io.Writer, s *trace.Slice, meta Meta) error {
	tw, err := NewWriter(w, meta)
	if err != nil {
		return err
	}
	for i := range s.Records {
		tw.Append(s.Records[i])
	}
	return tw.Close()
}
