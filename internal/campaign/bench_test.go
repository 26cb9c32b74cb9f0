package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/harness"
)

// BenchmarkJournalAppend journals a quick-scale `experiments -all`
// campaign's worth of runs: 1302 appends of one real result (Berti on
// mcf_like_1554 at quick scale) into a fresh journal per iteration, each
// append fsynced as in production. Besides the time per campaign it
// reports the last append's cost, which would grow with the journal if
// appends rewrote it.
func BenchmarkJournalAppend(b *testing.B) {
	const appends = 1302
	h := harness.New(harness.ScaleQuick)
	r, err := h.RunContext(context.Background(), harness.RunSpec{Workload: "mcf_like_1554", L1DPf: "berti"})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, appends)
	for i := range keys {
		keys[i] = fmt.Sprintf("w=mcf_like_1554|l1=berti|seed=%d", i)
	}
	path := filepath.Join(b.TempDir(), "bench"+JournalExt)
	var last time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := Create(path, harness.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		for n, k := range keys {
			start := time.Now()
			if err := j.Append(k, r); err != nil {
				b.Fatal(err)
			}
			if n == appends-1 {
				last += time.Since(start)
			}
		}
	}
	b.StopTimer()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(last.Microseconds())/1e3/float64(b.N), "ms/last-append")
	b.ReportMetric(float64(fi.Size())/1e6, "journal-MB")
}
