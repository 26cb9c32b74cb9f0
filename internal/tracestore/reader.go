package tracestore

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/bertisim/berti/internal/trace"
)

// ReaderOptions tunes a streaming reader.
type ReaderOptions struct {
	// Workers is the number of concurrent chunk-decode goroutines. 0 picks
	// min(GOMAXPROCS, 8); 1 decodes synchronously on the consuming
	// goroutine (no pipeline, no goroutines — the single-threaded
	// baseline).
	Workers int
	// Ahead bounds how many decoded chunks may sit ready in front of the
	// consumer (0 = 2x workers). A pipelined reader owns at most Ahead + 2
	// chunk-sized record buffers (the consumer's, Ahead ready ones, and
	// the one being queued behind them), independent of trace length and
	// of Workers: it allocates them over its first Ahead + 2 decodes and
	// recycles them from then on.
	Ahead int
	// Loop replays the trace forever (multi-core mixes), matching
	// trace.LoopReader: EOF is returned only for an empty trace.
	Loop bool
}

// ErrReaderClosed is returned by Next after Close.
var ErrReaderClosed = errors.New("tracestore: reader closed")

// job asks a worker to decode one chunk; the per-job channel (buffered 1)
// is the ordered hand-off slot.
type job struct {
	idx     int
	skip    int
	wrapped bool
	ch      chan chunkResult
}

type chunkResult struct {
	recs    []trace.Record // the records to replay (buf minus any skip)
	buf     []trace.Record // the whole decoded chunk, recycled once consumed
	err     error
	wrapped bool
}

// Reader streams records out of a File, implementing trace.Reader. With
// Workers > 1 it runs a bounded pipeline: a producer enumerates chunks in
// order, workers decompress and parse them concurrently, and the consumer
// receives them strictly in order through per-chunk hand-off slots. Close
// must be called to release the pipeline goroutines unless Next has already
// returned an error (EOF included). A reader recycles the record buffer of
// each chunk it has consumed, so a warm reader decodes without allocating.
type Reader struct {
	f    *File
	loop bool

	cur   []trace.Record
	buf   []trace.Record // backing buffer of cur (cur may skip its head)
	pos   int
	loops int
	err   error

	// Synchronous mode (Workers == 1).
	sync      bool
	nextChunk int
	skip      int
	sc        *scratch

	// Pipeline mode. free carries consumed chunk buffers back to the
	// workers. bufs counts the buffers allocated so far; it stops at
	// cap(free), the most that can be in flight, so free never fills and
	// a worker past the cap always finds a buffer there or soon will.
	pending  chan chan chunkResult
	free     chan []trace.Record
	bufs     atomic.Int32
	stop     chan struct{}
	stopOnce sync.Once
}

// NewReader returns a streaming reader over the whole trace.
func (f *File) NewReader(o ReaderOptions) *Reader {
	return f.newReader(0, 0, o)
}

// NewWindowReader returns a streaming reader fast-forwarded to the
// instruction-window start (see FastForward): the first record returned is
// the first whose retirement pushes the cumulative instruction count past
// startInstr. Skipped chunks are never decompressed. With Loop set, later
// laps replay from the beginning of the trace.
func (f *File) NewWindowReader(startInstr uint64, o ReaderOptions) (*Reader, error) {
	chunk, skip, _, err := f.FastForward(startInstr)
	if err != nil {
		return nil, err
	}
	return f.newReader(chunk, skip, o), nil
}

func (f *File) newReader(startChunk, skip int, o ReaderOptions) *Reader {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	r := &Reader{f: f, loop: o.Loop}
	if workers == 1 {
		r.sync = true
		r.nextChunk = startChunk
		r.skip = skip
		r.sc = f.newScratch()
		return r
	}
	ahead := o.Ahead
	if ahead <= 0 {
		ahead = 2 * workers
	}
	r.pending = make(chan chan chunkResult, ahead)
	r.free = make(chan []trace.Record, ahead+2)
	r.stop = make(chan struct{})
	jobs := make(chan job, workers)

	// Producer: enumerate chunks in order, pairing each decode job with the
	// hand-off slot the consumer will read, so results arrive in order no
	// matter which worker finishes first. Both sends respect stop, so Close
	// never strands it.
	go func() {
		defer close(jobs)
		chunk, skip, wrapped := startChunk, skip, false
		for {
			if chunk >= len(r.f.chunks) {
				if !r.loop || len(r.f.chunks) == 0 {
					close(r.pending)
					return
				}
				chunk, skip, wrapped = 0, 0, true
			}
			ch := make(chan chunkResult, 1)
			j := job{idx: chunk, skip: skip, wrapped: wrapped, ch: ch}
			select {
			case jobs <- j:
			case <-r.stop:
				return
			}
			select {
			case r.pending <- ch:
			case <-r.stop:
				return
			}
			chunk, skip, wrapped = chunk+1, 0, false
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			sc := r.f.newScratch()
			for {
				select {
				case j, ok := <-jobs:
					if !ok {
						return
					}
					buf, ok := r.takeBuf()
					if !ok {
						return
					}
					recs, err := r.f.decodeChunk(j.idx, sc, buf)
					res := chunkResult{recs: recs, buf: recs, err: err, wrapped: j.wrapped}
					if err == nil {
						res.recs = recs[j.skip:]
					}
					j.ch <- res
				case <-r.stop:
					return
				}
			}
		}()
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
		if r.sync {
			if err := r.advanceSync(); err != nil {
				r.err = err
				return trace.Record{}, err
			}
			continue
		}
		r.recycle()
		ch, ok := <-r.pending
		if !ok {
			r.err = io.EOF
			return trace.Record{}, io.EOF
		}
		res := <-ch
		if res.err != nil {
			r.err = res.err
			r.shutdown()
			return trace.Record{}, res.err
		}
		if res.wrapped {
			r.loops++
		}
		r.cur, r.buf, r.pos = res.recs, res.buf, 0
	}
	rec := r.cur[r.pos]
	r.pos++
	return rec, nil
}

// advanceSync decodes the next chunk inline (Workers == 1 mode).
func (r *Reader) advanceSync() error {
	if r.nextChunk >= len(r.f.chunks) {
		if !r.loop || len(r.f.chunks) == 0 {
			return io.EOF
		}
		r.nextChunk, r.skip = 0, 0
		r.loops++
	}
	// The current chunk is exhausted: decode over its buffer.
	if r.buf == nil {
		r.buf = r.f.newChunkBuf()
	}
	recs, err := r.f.decodeChunk(r.nextChunk, r.sc, r.buf[:0])
	if err != nil {
		return err
	}
	r.buf = recs
	r.cur, r.pos = recs[r.skip:], 0
	r.nextChunk++
	r.skip = 0
	return nil
}

// takeBuf gives a pipeline worker the buffer to decode its chunk into: a
// fresh one until cap(free) exist, a recycled one after that. It reports
// false if the reader stopped while it waited.
func (r *Reader) takeBuf() ([]trace.Record, bool) {
	if int(r.bufs.Load()) < cap(r.free) && int(r.bufs.Add(1)) <= cap(r.free) {
		return r.f.newChunkBuf(), true
	}
	select {
	case buf := <-r.free:
		return buf, true
	case <-r.stop:
		return nil, false
	}
}

// recycle hands the exhausted current chunk's buffer back to the pipeline
// workers (pipeline mode). The send never blocks: free has room for every
// buffer the reader allocates.
func (r *Reader) recycle() {
	if r.buf == nil {
		return
	}
	r.free <- r.buf[:0]
	r.cur, r.buf = nil, nil
}

// Loops reports how many times a looping reader has wrapped.
func (r *Reader) Loops() int { return r.loops }

// shutdown stops the pipeline goroutines without marking the reader closed.
func (r *Reader) shutdown() {
	if r.stop != nil {
		r.stopOnce.Do(func() { close(r.stop) })
	}
}

// Close stops the decode pipeline and releases its goroutines. It is safe
// to call multiple times; subsequent Next calls return ErrReaderClosed.
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = ErrReaderClosed
	}
	r.cur, r.buf, r.pos = nil, nil, 0
	r.shutdown()
	return nil
}
