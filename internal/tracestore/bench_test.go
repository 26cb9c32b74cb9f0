package tracestore

import (
	"bytes"
	"io"
	"runtime"
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

// BenchmarkDecode compares the single-worker stream against the
// parallel chunk pipeline on a >=1M-record trace. bytes/op is the
// compressed container size, so MB/s is decode throughput.
func BenchmarkDecode(b *testing.B) {
	f := benchContainer(b)
	b.Run("single", func(b *testing.B) {
		b.SetBytes(int64(len(benchData)))
		b.ReportMetric(float64(benchRecs), "records")
		for i := 0; i < b.N; i++ {
			drainBench(b, f.NewReader(ReaderOptions{Workers: 1}))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		// Pinned at 4 workers: the pipeline's win needs spare cores, and
		// GOMAXPROCS-sized pools understate it on constrained CI runners.
		workers := 4
		if n := runtime.GOMAXPROCS(0); n > workers {
			workers = n
		}
		b.SetBytes(int64(len(benchData)))
		b.ReportMetric(float64(workers), "workers")
		for i := 0; i < b.N; i++ {
			r := f.NewReader(ReaderOptions{Workers: workers})
			drainBench(b, r)
			r.Close()
		}
	})
}

// BenchmarkWindowSeek measures index-based fast-forward to the middle of
// the trace (decodes exactly one chunk regardless of trace length).
func BenchmarkWindowSeek(b *testing.B) {
	f := benchContainer(b)
	for i := 0; i < b.N; i++ {
		if _, _, _, err := f.FastForward(benchInstr / 2); err != nil {
			b.Fatal(err)
		}
	}
}
