package tracestore

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/workloads"

	_ "github.com/bertisim/berti/internal/workloads/cloudlike"
	_ "github.com/bertisim/berti/internal/workloads/gap"
	_ "github.com/bertisim/berti/internal/workloads/speclike"
)

// synthSlice builds a deterministic trace with varied deltas, kinds,
// NonMemBefore runs, and dependences.
func synthSlice(n int, seed uint64) *trace.Slice {
	s := &trace.Slice{Records: make([]trace.Record, 0, n)}
	x := seed*2862933555777941757 + 3037000493
	for i := 0; i < n; i++ {
		x = x*2862933555777941757 + 3037000493
		s.Append(trace.Record{
			IP:           0x400000 + (x>>7)%4096*21,
			Addr:         0x1_0000_0000 + (x>>19)%(1<<24)*8,
			Kind:         trace.Kind((x >> 3) & 1),
			NonMemBefore: uint32((x >> 33) % 13),
			DepDist:      uint8((x >> 45) % 7),
		})
	}
	return s
}

// encodeV2 round-trips a slice into an opened in-memory container.
func encodeV2(t *testing.T, s *trace.Slice, chunk uint32, name string) *File {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s, Meta{Workload: name, ChunkRecords: chunk}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	return f
}

// drain reads a Reader to EOF.
func drain(t *testing.T, r *Reader) []trace.Record {
	t.Helper()
	var out []trace.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(out), err)
		}
		out = append(out, rec)
	}
}

func sameRecords(t *testing.T, want, got []trace.Record, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRoundTripAllWorkloads checks encode -> stream-decode identity against
// the generated in-memory trace on every registered seed workload, through
// both the streaming reader and ReadAll.
func TestRoundTripAllWorkloads(t *testing.T) {
	all := workloads.All()
	if len(all) == 0 {
		t.Fatal("no workloads registered")
	}
	records := 20_000
	if testing.Short() {
		records = 6_000
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			s := w.Gen(workloads.GenConfig{MemRecords: records, Seed: 42})

			f := encodeV2(t, s, 1<<10, w.Name)
			if m := f.Meta(); m.Records != uint64(len(s.Records)) || m.Instructions != s.Instructions() || m.Workload != w.Name {
				t.Fatalf("meta = %+v, want %d records / %d instructions / %q",
					m, len(s.Records), s.Instructions(), w.Name)
			}
			sameRecords(t, s.Records, drain(t, f.NewReader(ReaderOptions{})), "stream")
			all, err := f.ReadAll()
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			sameRecords(t, s.Records, all.Records, "ReadAll")
		})
	}
}

// propertySlice draws n records whose IP and address deltas are small
// forward steps, negative steps, and now and then a jump to an arbitrary
// 64-bit value (a delta of any magnitude and sign).
func propertySlice(n int, seed int64) *trace.Slice {
	rng := rand.New(rand.NewSource(seed))
	s := &trace.Slice{}
	var ip, addr uint64 = 0x400000, 0x10000000
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			ip, addr = rng.Uint64(), rng.Uint64()
		} else {
			ip += uint64(rng.Intn(64))
			addr += uint64(rng.Int63n(1<<20)) - 1<<19
		}
		k := trace.Load
		if rng.Intn(4) == 0 {
			k = trace.Store
		}
		nonMem := uint32(rng.Intn(16))
		if rng.Intn(16) == 0 {
			nonMem = rng.Uint32()
		}
		s.Append(trace.Record{
			IP: ip, Addr: addr, Kind: k,
			NonMemBefore: nonMem,
			DepDist:      uint8(rng.Intn(256)),
		})
	}
	return s
}

// TestRoundtripProperty: any generated record sequence, the empty one
// included, survives Write -> OpenBytes -> ReadAll at every chunk framing
// (property-based via testing/quick).
func TestRoundtripProperty(t *testing.T) {
	for _, chunk := range []uint32{1, 7, 0} {
		roundTrips := func(seed int64, n uint8) bool {
			s := propertySlice(int(n), seed)
			var buf bytes.Buffer
			if err := Write(&buf, s, Meta{ChunkRecords: chunk}); err != nil {
				return false
			}
			f, err := OpenBytes(buf.Bytes())
			if err != nil {
				return false
			}
			got, err := f.ReadAll()
			if err != nil || got.Len() != s.Len() {
				return false
			}
			return s.Len() == 0 || reflect.DeepEqual(s.Records, got.Records)
		}
		if !roundTrips(1, 0) {
			t.Fatalf("chunk %d: empty trace did not round-trip", chunk)
		}
		if err := quick.Check(roundTrips, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
	}
}

// TestWindowFastForward checks that index-based fast-forward lands on the
// exact record boundary a naive linear scan picks, including targets that
// fall exactly on chunk boundaries.
func TestWindowFastForward(t *testing.T) {
	const chunk = 512
	s := synthSlice(10*chunk+137, 7)
	f := encodeV2(t, s, chunk, "ff")
	total := s.Instructions()

	// naive: first record index whose retirement exceeds target.
	naive := func(target uint64) (int, uint64) {
		var cum uint64
		for i := range s.Records {
			step := uint64(s.Records[i].NonMemBefore) + 1
			if cum+step > target {
				return i, cum
			}
			cum += step
		}
		return len(s.Records), cum
	}
	recordIndexOf := func(chunkIdx, skip int) int {
		if chunkIdx >= f.Chunks() {
			return int(f.Meta().Records)
		}
		return int(f.chunks[chunkIdx].StartRecord) + skip
	}

	targets := []uint64{0, 1, 57, total / 3, total / 2, total - 1, total, total + 1000}
	// Exact chunk-boundary targets: the cumulative instruction count at
	// each chunk's first record, and one instruction either side.
	for i := 1; i < f.Chunks(); i++ {
		si := f.chunks[i].StartInstr
		targets = append(targets, si-1, si, si+1)
	}
	for _, target := range targets {
		wantIdx, wantCum := naive(target)
		_, chunkIdx, skip, startInstr, err := f.seek(target, f.newScratch(), nil)
		if err != nil {
			t.Fatalf("seek(%d): %v", target, err)
		}
		if got := recordIndexOf(chunkIdx, skip); got != wantIdx || startInstr != wantCum {
			t.Fatalf("seek(%d) = record %d (instr %d), want record %d (instr %d)",
				target, got, startInstr, wantIdx, wantCum)
		}
		rd, err := f.NewWindowReader(target, ReaderOptions{})
		if err != nil {
			t.Fatalf("NewWindowReader(%d): %v", target, err)
		}
		sameRecords(t, s.Records[wantIdx:], drain(t, rd), "windowed stream")
	}
}

// TestLoopParity checks the streaming loop reader against trace.LoopReader
// across several wraps, on a file within the resident limit of 6 chunks
// (resident) and on one past it (decoded on every lap).
func TestLoopParity(t *testing.T) {
	s := synthSlice(700, 3)
	for _, chunk := range []uint32{256, 64} {
		f := encodeV2(t, s, chunk, "loop")
		want := trace.NewLoopReader(s)
		got := f.NewReader(ReaderOptions{Loop: true})
		defer got.Close()
		for i := 0; i < 5*len(s.Records)/2; i++ {
			w, err := want.Next()
			if err != nil {
				t.Fatalf("LoopReader: %v", err)
			}
			g, err := got.Next()
			if err != nil {
				t.Fatalf("%d chunks: streaming loop at %d: %v", f.Chunks(), i, err)
			}
			if w != g {
				t.Fatalf("%d chunks: record %d = %+v, want %+v", f.Chunks(), i, g, w)
			}
		}
		if got.Loops() != 2 {
			t.Fatalf("%d chunks: Loops = %d, want 2", f.Chunks(), got.Loops())
		}
	}
}

// TestReaderRecyclesChunkBuffers checks that a warm looping reader decodes
// every chunk into its one record buffer instead of allocating a fresh
// record slice per chunk. The file has more chunks than the resident
// limit, so the reader does not keep its chunks resident
// (TestLoopingReaderKeepsChunksResident). The stream starts mid-chunk (a
// window reader, so the first chunk is the seek's, replayed from its
// skip) and each lap crosses every chunk boundary and the wrap.
// compress/flate allocates Huffman link tables for every dynamic block it
// inflates (about 1 byte per record on this high-entropy trace), so the
// test measures that cost alone over the same chunks and requires the
// reader to add less than 1% of one chunk's record bytes per lap on top of
// it. Every record must still match the trace.
func TestReaderRecyclesChunkBuffers(t *testing.T) {
	// The subtest keeps the name it had when the reader could also decode
	// on worker goroutines; one worker meant this inline decode.
	t.Run("workers=1", func(t *testing.T) {
		const chunk = 16384
		s := synthSlice(6*chunk+chunk/2, 11) // 7 chunks: past residentChunks
		f := encodeV2(t, s, chunk, "recycle")
		var start uint64 // instructions retired by the records before chunk/3
		for _, rec := range s.Records[:chunk/3] {
			start += uint64(rec.NonMemBefore) + 1
		}
		limit := uint64(chunk) * uint64(unsafe.Sizeof(trace.Record{})) / 100
		// Starting mid-chunk 0, a lap decodes chunks 1..6, wraps, and decodes
		// chunk 0 again: every chunk once.
		inflate := inflateCost(t, f)
		r, err := f.NewWindowReader(start, ReaderOptions{Loop: true})
		if err != nil {
			t.Fatalf("NewWindowReader: %v", err)
		}
		defer r.Close()
		next := chunk / 3 // index of the record the reader returns next
		lap := func() {
			for range s.Records {
				rec, err := r.Next()
				if err != nil {
					t.Fatalf("Next: %v", err)
				}
				if want := s.Records[next]; rec != want {
					t.Fatalf("record %d = %+v, want %+v", next, rec, want)
				}
				next = (next + 1) % len(s.Records)
			}
		}
		for i := 0; i < 3; i++ { // warm: let flate's state reach its size
			lap()
		}
		const laps = 48
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < laps; i++ {
			lap()
		}
		runtime.ReadMemStats(&after)
		perLap := (after.TotalAlloc - before.TotalAlloc) / laps
		if perLap >= inflate+limit {
			t.Fatalf("%d bytes allocated per lap once warm, of which compress/flate accounts for %d; want < %d more (1%% of a %d-record chunk)",
				perLap, inflate, limit, chunk)
		}
		if r.Loops() != 3+laps {
			t.Fatalf("Loops = %d, want %d", r.Loops(), 3+laps)
		}
	})
}

// TestReaderStartsNoGoroutines: a reader decodes on the goroutine that
// calls Next, looping or not, from the start or from a window, also over a
// file past the resident limit.
func TestReaderStartsNoGoroutines(t *testing.T) {
	const chunk = 256
	s := synthSlice(8*chunk, 19) // 8 chunks: past residentChunks
	f := encodeV2(t, s, chunk, "inline")
	goroutines := runtime.NumGoroutine()
	for _, loop := range []bool{false, true} {
		o := ReaderOptions{Loop: loop}
		w, err := f.NewWindowReader(s.Instructions()/2, o)
		if err != nil {
			t.Fatalf("NewWindowReader: %v", err)
		}
		for _, r := range []*Reader{f.NewReader(o), w} {
			for i := 0; i < 3*chunk; i++ {
				if _, err := r.Next(); err != nil {
					t.Fatalf("loop=%v: Next: %v", loop, err)
				}
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Fatalf("loop=%v: %d goroutines with a reader open, %d before", loop, n, goroutines)
			}
			r.Close()
		}
	}
}

// TestLoopingReaderKeepsChunksResident checks resident replay: a looping
// reader over a file of at most residentChunks chunks decodes each chunk
// on its first visit and replays the kept records on every later lap
// without allocating a byte. The stream starts mid-chunk, so the seek
// decodes the start chunk whole and later laps replay its head too. A
// chunk damaged in place fails on its first visit with its *FormatError,
// or in NewWindowReader if it is the start chunk, which the seek decodes;
// Close poisons Next.
func TestLoopingReaderKeepsChunksResident(t *testing.T) {
	const chunk = 4096
	for _, tc := range []struct {
		name     string
		records  int
		startRec int // window start: record index, mid-chunk
	}{
		{"one-chunk", chunk - 100, chunk / 3},
		{"six-chunks", 5*chunk + chunk/2, 2*chunk + chunk/3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := synthSlice(tc.records, 23)
			var data bytes.Buffer
			if err := Write(&data, s, Meta{Workload: "resident", ChunkRecords: chunk}); err != nil {
				t.Fatalf("Write: %v", err)
			}
			var start uint64
			for _, rec := range s.Records[:tc.startRec] {
				start += uint64(rec.NonMemBefore) + 1
			}
			// open returns its own copy of the container, so a test can
			// damage it in place.
			open := func() ([]byte, *File) {
				t.Helper()
				b := bytes.Clone(data.Bytes())
				f, err := OpenBytes(b)
				if err != nil {
					t.Fatalf("OpenBytes: %v", err)
				}
				return b, f
			}

			goroutines := runtime.NumGoroutine()
			_, f := open()
			r, err := f.NewWindowReader(start, ReaderOptions{Loop: true})
			if err != nil {
				t.Fatalf("NewWindowReader: %v", err)
			}
			defer r.Close()
			next := tc.startRec // index of the record the reader returns next
			lap := func() {
				for range s.Records {
					rec, err := r.Next()
					if err != nil {
						t.Fatalf("Next: %v", err)
					}
					if want := s.Records[next]; rec != want {
						t.Fatalf("record %d = %+v, want %+v", next, rec, want)
					}
					next = (next + 1) % len(s.Records)
				}
			}
			lap() // decodes every chunk once
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Fatalf("%d goroutines after lap 1, %d before NewWindowReader", n, goroutines)
			}
			if r.Loops() != 1 {
				t.Fatalf("Loops = %d after lap 1, want 1", r.Loops())
			}
			const laps = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < laps; i++ {
				lap()
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n != 0 {
				t.Fatalf("%d bytes allocated over %d resident laps of %d chunks, want 0", n, laps, f.Chunks())
			}
			if r.Loops() != 1+laps {
				t.Fatalf("Loops = %d, want %d", r.Loops(), 1+laps)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := r.Next(); !errors.Is(err, ErrReaderClosed) {
				t.Fatalf("Next after Close = %v, want ErrReaderClosed", err)
			}

			// Damage the last chunk's payload in place before opening the
			// reader. If it is the start chunk, NewWindowReader fails;
			// otherwise records up to it still stream, then its first
			// visit fails, and the failure sticks.
			b, f := open()
			last := f.Chunks() - 1
			c := f.chunks[last]
			b[c.Offset+int64(c.CompLen)/2] ^= 0xff
			wantDamage := func(label string, err error) {
				t.Helper()
				var fe *FormatError
				if !errors.As(err, &fe) || fe.Chunk != last {
					t.Fatalf("%s into damaged chunk %d = %v, want its *FormatError", label, last, err)
				}
			}
			r, err = f.NewWindowReader(start, ReaderOptions{Loop: true})
			if int(c.StartRecord) <= tc.startRec {
				wantDamage("NewWindowReader", err)
				return
			}
			if err != nil {
				t.Fatalf("NewWindowReader: %v", err)
			}
			defer r.Close()
			for i := tc.startRec; i < int(c.StartRecord); i++ {
				if rec, err := r.Next(); err != nil || rec != s.Records[i] {
					t.Fatalf("record %d = %+v, %v; want %+v", i, rec, err, s.Records[i])
				}
			}
			for i := 0; i < 2; i++ {
				_, err := r.Next()
				wantDamage("Next", err)
			}
		})
	}
}

// inflateCost returns the bytes compress/flate allocates to inflate every
// chunk of f once, into buffers that are already warm.
func inflateCost(t *testing.T, f *File) uint64 {
	t.Helper()
	fr := flate.NewReader(bytes.NewReader(nil))
	var br bytes.Reader
	var raw bytes.Buffer
	var comp []byte
	pass := func() {
		for i := range f.chunks {
			c := &f.chunks[i]
			if cap(comp) < int(c.CompLen) {
				comp = make([]byte, c.CompLen)
			}
			comp = comp[:c.CompLen]
			if _, err := f.ra.ReadAt(comp, c.Offset); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			br.Reset(comp)
			if err := fr.(flate.Resetter).Reset(&br, nil); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			raw.Reset()
			if _, err := raw.ReadFrom(fr); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEmptyTrace: zero records must round-trip and stream to immediate EOF,
// looping or not (matching LoopReader's empty-slice behaviour).
func TestEmptyTrace(t *testing.T) {
	f := encodeV2(t, &trace.Slice{}, 0, "")
	if f.Chunks() != 0 || f.Meta().Records != 0 {
		t.Fatalf("empty trace: %d chunks, %d records", f.Chunks(), f.Meta().Records)
	}
	for _, opt := range []ReaderOptions{{}, {Loop: true}} {
		r := f.NewReader(opt)
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("Next on empty (opts %+v) = %v, want EOF", opt, err)
		}
	}
}

// TestReaderClose: closing mid-stream poisons Next, and a second Close is
// harmless.
func TestReaderClose(t *testing.T) {
	f := encodeV2(t, synthSlice(5000, 9), 256, "close")
	r := f.NewReader(ReaderOptions{Loop: true})
	for i := 0; i < 100; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrReaderClosed) {
		t.Fatalf("Next after Close = %v, want ErrReaderClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCorpusEnsure: the cache generates once, reuses thereafter, and
// regenerates a damaged entry.
func TestCorpusEnsure(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := synthSlice(3000, 11)
	gens := 0
	gen := func() *trace.Slice { gens++; return s }
	k := Key{Workload: "synthetic/x", Records: 3000, Seed: 42}

	f1, err := c.Ensure(k, gen)
	if err != nil {
		t.Fatalf("Ensure (miss): %v", err)
	}
	sameRecords(t, s.Records, drain(t, f1.NewReader(ReaderOptions{})), "first Ensure")
	f1.Close()
	f2, err := c.Ensure(k, gen)
	if err != nil {
		t.Fatalf("Ensure (hit): %v", err)
	}
	f2.Close()
	if gens != 1 {
		t.Fatalf("generator ran %d times, want 1", gens)
	}
	// Distinct keys map to distinct files.
	if c.Path(k) == c.Path(Key{Workload: "synthetic/x", Records: 3000, Seed: 43}) {
		t.Fatal("different seeds share a cache path")
	}

	// Damage the entry: Ensure must regenerate, not fail.
	path := c.Path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	f3, err := c.Ensure(k, gen)
	if err != nil {
		t.Fatalf("Ensure (corrupt entry): %v", err)
	}
	sameRecords(t, s.Records, drain(t, f3.NewReader(ReaderOptions{})), "regenerated entry")
	f3.Close()
	if gens != 2 {
		t.Fatalf("generator ran %d times after corruption, want 2", gens)
	}
	// No temp litter.
	matches, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// failingWriter errors after n bytes (disk-full simulation).
type failingWriter struct {
	n    int
	fail error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.fail
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriterShortWrite: a failing sink must surface through Append/Close,
// never silently truncate.
func TestWriterShortWrite(t *testing.T) {
	s := synthSlice(4096, 5)
	wantErr := errors.New("disk full")
	for _, budget := range []int{0, 4, 2000} {
		fw := &failingWriter{n: budget, fail: wantErr}
		tw, err := NewWriter(fw, Meta{ChunkRecords: 512})
		if budget < len(headMagic) {
			if err == nil {
				t.Fatalf("budget %d: NewWriter succeeded", budget)
			}
			continue
		}
		if err != nil {
			t.Fatalf("budget %d: NewWriter: %v", budget, err)
		}
		for i := range s.Records {
			tw.Append(s.Records[i])
		}
		if err := tw.Close(); !errors.Is(err, wantErr) {
			t.Fatalf("budget %d: Close = %v, want %v", budget, err, wantErr)
		}
		if tw.Err() == nil {
			t.Fatalf("budget %d: Err() nil after failed write", budget)
		}
	}
}

// TestOpenRejectsDamage: structural damage must yield *FormatError, and a
// v1 stream must be rejected with ErrNotV2.
func TestOpenRejectsDamage(t *testing.T) {
	s := synthSlice(2000, 13)
	var buf bytes.Buffer
	if err := Write(&buf, s, Meta{ChunkRecords: 256, Workload: "dmg"}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := OpenBytes(valid); err != nil {
		t.Fatalf("valid container rejected: %v", err)
	}

	check := func(label string, data []byte, want error) {
		t.Helper()
		_, err := OpenBytes(data)
		if err == nil {
			t.Fatalf("%s: accepted", label)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v is not *FormatError", label, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: error %v, want %v", label, err, want)
		}
	}
	mut := func(i int) []byte {
		d := append([]byte(nil), valid...)
		d[i] ^= 0xff
		return d
	}
	// The retired v1 flat stream: its magic, then record bytes.
	v1 := append([]byte("BERTITR1"), make([]byte, 64)...)
	check("v1 stream", v1, ErrNotV2)
	check("bad head magic", mut(0), ErrNotV2)
	check("bad tail magic", mut(len(valid)-1), ErrBadTrailer)
	check("damaged index", mut(len(valid)-trailerLen-50), ErrChecksum)
	check("truncated footer", valid[:len(valid)-trailerLen-10], nil)
	check("truncated to header", valid[:HeadMagicLen], nil)

	// A flipped payload byte passes Open (footer is intact) but must fail
	// the chunk CRC at decode time.
	d := mut(HeadMagicLen + 3)
	f, err := OpenBytes(d)
	if err != nil {
		t.Fatalf("payload damage rejected at Open (footer is intact): %v", err)
	}
	if _, err := f.NewReader(ReaderOptions{}).Next(); err == nil {
		t.Fatal("damaged chunk decoded cleanly")
	} else if !errors.Is(err, ErrChecksum) {
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("damaged chunk error %v is not *FormatError", err)
		}
	}
}
