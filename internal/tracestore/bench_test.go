package tracestore

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// benchFile lazily builds a >=1M-record container shared by the decode
// benchmarks (encoding it once keeps -benchtime=1x smoke runs quick).
var (
	benchOnce  sync.Once
	benchData  []byte
	benchRecs  int
	benchInstr uint64
)

func benchContainer(b *testing.B) *File {
	b.Helper()
	benchOnce.Do(func() {
		const n = 1 << 20 // 1,048,576 records
		s := synthSlice(n, 17)
		var buf bytes.Buffer
		if err := Write(&buf, s, Meta{Workload: "bench"}); err != nil {
			b.Fatal(err)
		}
		benchData = buf.Bytes()
		benchRecs = n
		benchInstr = s.Instructions()
	})
	f, err := OpenBytes(benchData)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func drainBench(b *testing.B, r *Reader) {
	b.Helper()
	var n int
	var sum uint64
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		n++
		sum += rec.Addr
	}
	if n != benchRecs {
		b.Fatalf("streamed %d records, want %d", n, benchRecs)
	}
	_ = sum
}

// BenchmarkDecode streams a >=1M-record trace. bytes/op is the compressed
// container size, so MB/s is decode throughput. loop-resident reads 16
// laps of a 2-chunk looping trace (the size of a multi-core mix's per-core
// trace), which is within the resident limit: one op decodes each chunk
// once and replays it 15 times.
func BenchmarkDecode(b *testing.B) {
	f := benchContainer(b)
	b.Run("single", func(b *testing.B) {
		b.SetBytes(int64(len(benchData)))
		b.ReportMetric(float64(benchRecs), "records")
		for i := 0; i < b.N; i++ {
			drainBench(b, f.NewReader(ReaderOptions{}))
		}
	})
	b.Run("loop-resident", func(b *testing.B) {
		const laps = 16
		s := synthSlice(120_000, 17)
		var buf bytes.Buffer
		if err := Write(&buf, s, Meta{Workload: "bench-loop"}); err != nil {
			b.Fatal(err)
		}
		lf, err := OpenBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		if lf.Chunks() != 2 {
			b.Fatalf("%d chunks, want 2", lf.Chunks())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := lf.NewReader(ReaderOptions{Loop: true})
			for n := laps * len(s.Records); n > 0; n-- {
				if _, err := r.Next(); err != nil {
					b.Fatal(err)
				}
			}
			r.Close()
		}
		b.ReportMetric(laps, "laps")
	})
}

// BenchmarkWindowSeek measures opening a window reader in the middle of
// the trace and reading its first record: index-based fast-forward decodes
// exactly one chunk regardless of trace length, and the reader replays it.
func BenchmarkWindowSeek(b *testing.B) {
	f := benchContainer(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := f.NewWindowReader(benchInstr/2, ReaderOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}
