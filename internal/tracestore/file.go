package tracestore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sort"

	"github.com/bertisim/berti/internal/trace"
)

// File is an opened v2 container: the parsed metadata and chunk index over
// a random-access byte source. Chunk payloads are decoded on demand by
// readers; opening a file reads only the footer. A File is safe for
// concurrent readers (io.ReaderAt is a stateless interface and the index is
// immutable after Open).
type File struct {
	ra     io.ReaderAt
	size   int64
	meta   Meta
	chunks []chunkInfo
	digest [sha256.Size]byte
	closer io.Closer
}

// Open opens a v2 container on disk. Corrupt or truncated files yield a
// *FormatError; anything without the v2 magic, v1 traces included, is
// rejected with ErrNotV2.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	tf, err := OpenReaderAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	tf.closer = f
	return tf, nil
}

// OpenBytes opens a v2 container held in memory (tests, fuzzing).
func OpenBytes(b []byte) (*File, error) {
	return OpenReaderAt(bytes.NewReader(b), int64(len(b)))
}

// OpenReaderAt opens a v2 container over any random-access source of the
// given size. The source must remain valid for the life of the File and its
// readers.
func OpenReaderAt(ra io.ReaderAt, size int64) (*File, error) {
	fail := func(section string, off int64, err error) (*File, error) {
		return nil, &FormatError{Section: section, Chunk: -1, Offset: off, Err: err}
	}
	if size < int64(len(headMagic))+trailerLen {
		return fail("trailer", size, io.ErrUnexpectedEOF)
	}
	var head [len(headMagic)]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil {
		return fail("magic", 0, err)
	}
	if head != headMagic {
		return fail("magic", 0, ErrNotV2)
	}
	var tr [trailerLen]byte
	trOff := size - trailerLen
	if _, err := ra.ReadAt(tr[:], trOff); err != nil {
		return fail("trailer", trOff, err)
	}
	if !bytes.Equal(tr[20:28], tailMagic[:]) {
		return fail("trailer", trOff, ErrBadTrailer)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	chunkCount := binary.LittleEndian.Uint32(tr[8:12])
	metaLen := binary.LittleEndian.Uint32(tr[12:16])
	footerCRC := binary.LittleEndian.Uint32(tr[16:20])
	if metaLen > maxMetaLen {
		return fail("trailer", trOff, fmt.Errorf("meta block of %d bytes exceeds limit %d", metaLen, maxMetaLen))
	}
	indexLen := int64(chunkCount) * indexEntryLen
	if footerOff < int64(len(headMagic)) || footerOff+indexLen+int64(metaLen)+trailerLen != size {
		return fail("trailer", trOff, fmt.Errorf("footer geometry inconsistent with file size %d", size))
	}
	footer := make([]byte, indexLen+int64(metaLen))
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return fail("footer", footerOff, err)
	}
	if crc32.Checksum(footer, castagnoli) != footerCRC {
		return fail("footer", footerOff, ErrChecksum)
	}

	f := &File{ra: ra, size: size, digest: sha256.Sum256(footer)}
	mb := footer[indexLen:]
	if len(mb) < 32 {
		return fail("meta", footerOff+indexLen, io.ErrUnexpectedEOF)
	}
	if v := binary.LittleEndian.Uint16(mb[0:2]); v != FormatVersion {
		return fail("meta", footerOff+indexLen, fmt.Errorf("unsupported version %d", v))
	}
	f.meta.ChunkRecords = binary.LittleEndian.Uint32(mb[2:6])
	f.meta.Records = binary.LittleEndian.Uint64(mb[6:14])
	f.meta.Instructions = binary.LittleEndian.Uint64(mb[14:22])
	f.meta.LineFootprint = binary.LittleEndian.Uint64(mb[22:30])
	nameLen := int(binary.LittleEndian.Uint16(mb[30:32]))
	if len(mb) != 32+nameLen {
		return fail("meta", footerOff+indexLen, fmt.Errorf("name length %d inconsistent with meta block of %d bytes", nameLen, len(mb)))
	}
	f.meta.Workload = string(mb[32:])
	if f.meta.ChunkRecords == 0 || f.meta.ChunkRecords > MaxChunkRecords {
		return fail("meta", footerOff+indexLen, fmt.Errorf("chunk size %d outside [1, %d]", f.meta.ChunkRecords, MaxChunkRecords))
	}
	if f.meta.Records > MaxRecords {
		return fail("meta", footerOff+indexLen, fmt.Errorf("record count %d exceeds limit %d", f.meta.Records, int64(MaxRecords)))
	}

	// Parse and validate the index: chunks must tile [len(magic), footerOff)
	// contiguously with monotonic record/instruction starts that sum to the
	// meta totals, so a corrupt index can neither alias chunks nor claim
	// counts the payloads cannot hold.
	f.chunks = make([]chunkInfo, chunkCount)
	wantOff := int64(len(headMagic))
	var recs, instr uint64
	for i := range f.chunks {
		e := footer[int64(i)*indexEntryLen:]
		c := chunkInfo{
			Offset:      int64(binary.LittleEndian.Uint64(e[0:8])),
			CompLen:     binary.LittleEndian.Uint32(e[8:12]),
			RawLen:      binary.LittleEndian.Uint32(e[12:16]),
			Records:     binary.LittleEndian.Uint32(e[16:20]),
			CRC:         binary.LittleEndian.Uint32(e[20:24]),
			StartRecord: binary.LittleEndian.Uint64(e[24:32]),
			StartInstr:  binary.LittleEndian.Uint64(e[32:40]),
		}
		failC := func(err error) (*File, error) {
			return nil, &FormatError{Section: "index", Chunk: i, Offset: c.Offset, Err: err}
		}
		if c.Offset != wantOff {
			return failC(fmt.Errorf("offset %d, want %d (chunks must be contiguous)", c.Offset, wantOff))
		}
		if c.CompLen == 0 || c.Offset+int64(c.CompLen) > footerOff {
			return failC(fmt.Errorf("compressed length %d overruns footer", c.CompLen))
		}
		if c.Records == 0 || c.Records > f.meta.ChunkRecords {
			return failC(fmt.Errorf("record count %d outside [1, %d]", c.Records, f.meta.ChunkRecords))
		}
		if c.RawLen < c.Records*minRecordBytes || c.RawLen > c.Records*maxRecordBytes {
			return failC(fmt.Errorf("raw length %d inconsistent with %d records", c.RawLen, c.Records))
		}
		if c.StartRecord != recs {
			return failC(fmt.Errorf("start record %d, want %d", c.StartRecord, recs))
		}
		if c.StartInstr != instr {
			return failC(fmt.Errorf("start instruction %d, want %d", c.StartInstr, instr))
		}
		if instr+uint64(c.Records) < instr { // each record retires >= 1 instruction
			return failC(fmt.Errorf("instruction count overflow"))
		}
		recs += uint64(c.Records)
		// StartInstr of the next chunk carries the real per-chunk
		// instruction total; the final chunk is checked against the meta.
		if i+1 < len(f.chunks) {
			instr = binary.LittleEndian.Uint64(footer[int64(i+1)*indexEntryLen+32:][:8])
			if instr < c.StartInstr+uint64(c.Records) {
				return failC(fmt.Errorf("next chunk starts at instruction %d, before this chunk's %d records end", instr, c.Records))
			}
		} else {
			instr = f.meta.Instructions
			if instr < c.StartInstr+uint64(c.Records) {
				return failC(fmt.Errorf("meta instruction total %d too small for final chunk", instr))
			}
		}
		wantOff = c.Offset + int64(c.CompLen)
		f.chunks[i] = c
	}
	if wantOff != footerOff {
		return fail("index", footerOff, fmt.Errorf("chunks end at %d, footer starts at %d", wantOff, footerOff))
	}
	if recs != f.meta.Records {
		return fail("index", footerOff, fmt.Errorf("index holds %d records, meta claims %d", recs, f.meta.Records))
	}
	if chunkCount == 0 && (f.meta.Records != 0 || f.meta.Instructions != 0) {
		return fail("index", footerOff, fmt.Errorf("empty index but meta claims %d records", f.meta.Records))
	}
	return f, nil
}

// Close releases the underlying file handle (no-op for in-memory sources).
// Readers created from the File must be closed or exhausted first.
func (f *File) Close() error {
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// Meta returns the stored trace metadata.
func (f *File) Meta() Meta { return f.meta }

// Digest names the container by its content: the hex SHA-256 of the
// checksummed footer, i.e. the chunk index (which carries each chunk's
// CRC32-C) plus the metadata. Copies of a container share a digest wherever
// they live; containers of different records do not.
func (f *File) Digest() string { return hex.EncodeToString(f.digest[:]) }

// Chunks returns the number of chunks in the container.
func (f *File) Chunks() int { return len(f.chunks) }

// CompressedSize returns the total compressed payload bytes (diagnostics).
func (f *File) CompressedSize() int64 {
	var n int64
	for i := range f.chunks {
		n += int64(f.chunks[i].CompLen)
	}
	return n
}

// scratch holds the per-decoder reusable buffers, so a decode allocates
// nothing once they have grown to the largest chunk.
type scratch struct {
	comp []byte
	raw  bytes.Buffer
	br   *bytes.Reader
	fr   io.ReadCloser
	lr   io.LimitedReader
}

// newScratch returns decode buffers sized up front for f's largest chunk,
// so a decoder never regrows them, whichever chunks it happens to be
// handed. The raw buffer keeps bytes.MinRead spare bytes past the payload:
// a bytes.Buffer reading to EOF wants that much room.
func (f *File) newScratch() *scratch {
	var comp, raw int
	for i := range f.chunks {
		comp = max(comp, int(f.chunks[i].CompLen))
		raw = max(raw, int(f.chunks[i].RawLen))
	}
	sc := &scratch{comp: make([]byte, comp), br: bytes.NewReader(nil), fr: flate.NewReader(bytes.NewReader(nil))}
	sc.raw.Grow(raw + bytes.MinRead)
	return sc
}

// newChunkBuf returns an empty record buffer that holds any chunk of f, so
// a reader decoding chunk after chunk into it never has to grow it.
func (f *File) newChunkBuf() []trace.Record {
	return make([]trace.Record, 0, min(uint64(f.meta.ChunkRecords), f.meta.Records))
}

// decodeChunk reads, decompresses, verifies, and parses one chunk,
// appending its records to dst and returning the extended slice. Streaming
// readers pass a recycled buffer (dst[:0] of a consumed chunk), so a warm
// reader decodes without allocating; everything else comes from sc.
func (f *File) decodeChunk(idx int, sc *scratch, dst []trace.Record) ([]trace.Record, error) {
	c := &f.chunks[idx]
	failC := func(err error) ([]trace.Record, error) {
		return nil, &FormatError{Section: "chunk", Chunk: idx, Offset: c.Offset, Err: err}
	}
	comp := sc.comp[:c.CompLen]
	if _, err := f.ra.ReadAt(comp, c.Offset); err != nil {
		return failC(err)
	}
	sc.br.Reset(comp)
	if err := sc.fr.(flate.Resetter).Reset(sc.br, nil); err != nil {
		return failC(err)
	}
	sc.raw.Reset()
	// The copy is capped at RawLen+1: a payload that inflates past its
	// declared size is rejected without buffering the excess, and the
	// index validation already bounded RawLen by the chunk's record count.
	sc.lr = io.LimitedReader{R: sc.fr, N: int64(c.RawLen) + 1}
	n, err := io.Copy(&sc.raw, &sc.lr)
	if err != nil {
		return failC(fmt.Errorf("inflate: %w", err))
	}
	if n != int64(c.RawLen) {
		return failC(fmt.Errorf("payload inflated to %d bytes, index claims %d", n, c.RawLen))
	}
	raw := sc.raw.Bytes()
	if crc32.Checksum(raw, castagnoli) != c.CRC {
		return failC(ErrChecksum)
	}

	out := slices.Grow(dst, int(c.Records))
	var prevIP, prevAddr uint64
	pos := 0
	for i := uint32(0); i < c.Records; i++ {
		failR := func(field string) ([]trace.Record, error) {
			return failC(fmt.Errorf("record %d %s at payload byte %d: invalid encoding", c.StartRecord+uint64(i), field, pos))
		}
		dip, w := binary.Varint(raw[pos:])
		if w <= 0 {
			return failR("ip")
		}
		pos += w
		daddr, w := binary.Varint(raw[pos:])
		if w <= 0 {
			return failR("addr")
		}
		pos += w
		if pos >= len(raw) {
			return failR("kind")
		}
		kind := raw[pos]
		pos++
		if kind > uint8(trace.Store) {
			return failR("kind")
		}
		nonMem, w := binary.Uvarint(raw[pos:])
		if w <= 0 || nonMem > 1<<32-1 {
			return failR("nonmem")
		}
		pos += w
		if pos >= len(raw) {
			return failR("depdist")
		}
		dep := raw[pos]
		pos++
		prevIP += uint64(dip)
		prevAddr += uint64(daddr)
		out = append(out, trace.Record{
			IP:           prevIP,
			Addr:         prevAddr,
			Kind:         trace.Kind(kind),
			NonMemBefore: uint32(nonMem),
			DepDist:      dep,
		})
	}
	if pos != len(raw) {
		return failC(fmt.Errorf("%d trailing payload bytes after last record", len(raw)-pos))
	}
	return out, nil
}

// FastForward locates the window start for an instruction target: the
// position of the first record whose retirement would push the cumulative
// instruction count (memory records plus their NonMemBefore runs) past
// target. It returns the chunk to start in and the records to skip within
// it, decoding at most one chunk. A target at or past the end of the trace
// returns chunk == Chunks() (the EOF position).
func (f *File) FastForward(target uint64) (chunk, skip int, startInstr uint64, err error) {
	_, chunk, skip, startInstr, err = f.seek(target, f.newScratch(), nil)
	return chunk, skip, startInstr, err
}

// seek is FastForward that also returns the start chunk's records, decoded
// with sc and appended to dst, so a reader can replay them without decoding
// the chunk again. recs is nil when the window starts on a chunk it did
// not decode.
func (f *File) seek(target uint64, sc *scratch, dst []trace.Record) (recs []trace.Record, chunk, skip int, startInstr uint64, err error) {
	if target >= f.meta.Instructions {
		return nil, len(f.chunks), 0, f.meta.Instructions, nil
	}
	if target == 0 {
		return nil, 0, 0, 0, nil // the first record always retires past 0
	}
	// Last chunk whose first record retires within the target.
	chunk = sort.Search(len(f.chunks), func(i int) bool {
		return f.chunks[i].StartInstr > target
	}) - 1
	if chunk < 0 {
		chunk = 0
	}
	recs, err = f.decodeChunk(chunk, sc, dst)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	cum := f.chunks[chunk].StartInstr
	for skip = 0; skip < len(recs); skip++ {
		step := uint64(recs[skip].NonMemBefore) + 1
		if cum+step > target {
			return recs, chunk, skip, cum, nil
		}
		cum += step
	}
	// Unreachable for a consistent index (the next chunk's StartInstr
	// would have been <= target), but a damaged file should degrade to
	// "start at the next chunk", not panic.
	return nil, chunk + 1, 0, cum, nil
}

// ReadAll decodes the whole container into an in-memory trace (inspection
// tools and tests; simulation paths should stream instead).
func (f *File) ReadAll() (*trace.Slice, error) {
	capHint := f.meta.Records
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	s := &trace.Slice{Records: make([]trace.Record, 0, capHint)}
	sc := f.newScratch()
	for i := range f.chunks {
		var err error
		if s.Records, err = f.decodeChunk(i, sc, s.Records); err != nil {
			return nil, err
		}
	}
	return s, nil
}
