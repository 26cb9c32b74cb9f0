package tracestore

import (
	"errors"
	"io"

	"github.com/bertisim/berti/internal/trace"
)

// residentChunks is the most chunks a looping reader keeps resident: over
// a file of at most that many chunks it decodes each chunk on its first
// visit, into a buffer of exactly that chunk's records, and replays the
// kept buffers on every later lap without decoding again.
const residentChunks = 6

// ReaderOptions tunes a streaming reader.
type ReaderOptions struct {
	// Deprecated: Workers has no effect. A reader decodes each chunk
	// inline on the goroutine that calls Next.
	Workers int
	// Loop replays the trace forever (multi-core mixes), matching
	// trace.LoopReader: EOF is returned only for an empty trace.
	Loop bool
}

// ErrReaderClosed is returned by Next after Close.
var ErrReaderClosed = errors.New("tracestore: reader closed")

// Reader streams records out of a File, implementing trace.Reader. Next
// decodes the next chunk inline when the current one is spent, into one
// record buffer the reader reuses, so a warm reader decodes without
// allocating and starts no goroutines. A looping reader over a file of at
// most residentChunks chunks keeps every chunk instead, so a warm one does
// not decode at all.
type Reader struct {
	f    *File
	loop bool

	cur   []trace.Record // the current chunk; Next returns cur[pos:]
	pos   int
	next  int // the chunk to move to once cur is spent
	loops int
	err   error

	sc  *scratch
	buf []trace.Record // the record buffer every chunk decodes into

	// Resident mode: res[i] holds chunk i's records once its first visit
	// has decoded them, resident counts those chunks, and sc is dropped
	// when the last one lands.
	res      [][]trace.Record
	resident int
}

// NewReader returns a streaming reader over the whole trace.
func (f *File) NewReader(o ReaderOptions) *Reader {
	return f.newReader(o)
}

// NewWindowReader returns a streaming reader fast-forwarded to the
// instruction-window start (see FastForward): the first record returned is
// the first whose retirement pushes the cumulative instruction count past
// startInstr. Skipped chunks are never decompressed, and the start chunk
// is decoded once, by the seek. With Loop set, later laps replay from the
// beginning of the trace.
func (f *File) NewWindowReader(startInstr uint64, o ReaderOptions) (*Reader, error) {
	r := f.newReader(o)
	recs, chunk, skip, _, err := f.seek(startInstr, r.sc, r.buf)
	if err != nil {
		return nil, err
	}
	r.next = chunk
	if recs != nil {
		r.adopt(chunk, recs)
		r.pos = skip
	}
	return r, nil
}

func (f *File) newReader(o ReaderOptions) *Reader {
	r := &Reader{f: f, loop: o.Loop, sc: f.newScratch()}
	if o.Loop && len(f.chunks) <= residentChunks {
		r.res = make([][]trace.Record, len(f.chunks))
	} else {
		r.buf = f.newChunkBuf()
	}
	return r
}

// Next implements trace.Reader. Decode failures surface as the
// *FormatError of the damaged chunk; the reader is unusable afterwards.
func (r *Reader) Next() (trace.Record, error) {
	for r.pos >= len(r.cur) {
		if r.err != nil {
			return trace.Record{}, r.err
		}
		if err := r.advance(); err != nil {
			r.err = err
			return trace.Record{}, err
		}
	}
	rec := r.cur[r.pos]
	r.pos++
	return rec, nil
}

// advance moves to the next chunk, wrapping a looping reader at the end of
// the trace.
func (r *Reader) advance() error {
	if r.next >= len(r.f.chunks) {
		if !r.loop || len(r.f.chunks) == 0 {
			return io.EOF
		}
		r.next = 0
		r.loops++
	}
	if r.res != nil && r.res[r.next] != nil {
		r.cur, r.pos = r.res[r.next], 0
		r.next++
		return nil
	}
	// A resident reader's nil buf gives the chunk a buffer it fills
	// exactly; a streaming one decodes over the spent chunk.
	recs, err := r.f.decodeChunk(r.next, r.sc, r.buf[:0])
	if err != nil {
		return err
	}
	r.adopt(r.next, recs)
	return nil
}

// adopt makes the decoded records of chunk idx the current chunk, keeping
// them if the reader is resident.
func (r *Reader) adopt(idx int, recs []trace.Record) {
	if r.res != nil {
		r.res[idx] = recs
		if r.resident++; r.resident == len(r.res) {
			r.sc = nil
		}
	} else {
		r.buf = recs
	}
	r.cur, r.pos, r.next = recs, 0, idx+1
}

// Loops reports how many times a looping reader has wrapped.
func (r *Reader) Loops() int { return r.loops }

// Close releases the reader's buffers. It is safe to call multiple times;
// subsequent Next calls return ErrReaderClosed.
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = ErrReaderClosed
	}
	r.cur, r.buf, r.pos = nil, nil, 0
	r.res, r.sc = nil, nil
	return nil
}
