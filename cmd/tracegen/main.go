// Command tracegen generates workload traces to disk and inspects existing
// trace files. Traces are written in the seekable chunk-compressed v2
// container (internal/tracestore); -inspect summarizes one.
//
// Usage:
//
//	tracegen -workload bfs-kron -records 500000 -o bfs.btr2
//	tracegen -inspect bfs.btr2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/tracestore"
	"github.com/bertisim/berti/internal/workloads"
	_ "github.com/bertisim/berti/internal/workloads/cloudlike"
	_ "github.com/bertisim/berti/internal/workloads/gap"
	_ "github.com/bertisim/berti/internal/workloads/speclike"
)

func main() {
	workload := flag.String("workload", "", "workload to generate")
	records := flag.Int("records", 300_000, "memory records to emit")
	seed := flag.Int64("seed", 42, "generation seed")
	out := flag.String("o", "", "output trace file")
	chunk := flag.Uint("chunk", 0, "v2 records per chunk (0 = default)")
	inspect := flag.String("inspect", "", "trace file to summarize")
	flag.Parse()

	switch {
	case *inspect != "":
		inspectFile(*inspect)
	case *workload != "" && *out != "":
		w, ok := workloads.ByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		tr := w.Gen(workloads.GenConfig{MemRecords: *records, Seed: *seed})
		// Written to a temp file and renamed into place, so a failed or
		// interrupted write leaves no truncated container behind.
		err := campaign.WriteFileAtomic(*out, func(w io.Writer) error {
			return tracestore.Write(w, tr, tracestore.Meta{Workload: *workload, ChunkRecords: uint32(*chunk)})
		})
		if err != nil {
			fatal(fmt.Errorf("writing %s: %w", *out, err))
		}
		st, err := os.Stat(*out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d records (%d instructions) to %s (v2, %d bytes)\n",
			tr.Len(), tr.Instructions(), *out, st.Size())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// inspectFile opens a v2 container and prints a summary.
func inspectFile(path string) {
	tf, err := tracestore.Open(path)
	if err != nil {
		fatal(err)
	}
	defer tf.Close()
	m := tf.Meta()
	fmt.Printf("format:        v2 container (%d chunks of <=%d records)\n",
		tf.Chunks(), m.ChunkRecords)
	if m.Workload != "" {
		fmt.Printf("workload:      %s\n", m.Workload)
	}
	fmt.Printf("line footprint: %d lines (%.1f MB)\n",
		m.LineFootprint, float64(m.LineFootprint)*64/1e6)
	tr, err := tf.ReadAll()
	if err != nil {
		fatal(err)
	}
	summarize(tr)
	if raw := tr.Len(); raw > 0 {
		fmt.Printf("compressed:    %d bytes (%.2f bytes/record)\n",
			tf.CompressedSize(), float64(tf.CompressedSize())/float64(raw))
	}
}

func summarize(tr *trace.Slice) {
	loads, stores, deps := 0, 0, 0
	ips := map[uint64]int{}
	pages := map[uint64]bool{}
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Kind == trace.Load {
			loads++
		} else {
			stores++
		}
		if r.DepDist > 0 {
			deps++
		}
		ips[r.IP]++
		pages[r.Addr>>12] = true
	}
	fmt.Printf("records:       %d (%d loads, %d stores, %d dependent)\n",
		tr.Len(), loads, stores, deps)
	fmt.Printf("instructions:  %d\n", tr.Instructions())
	fmt.Printf("distinct IPs:  %d\n", len(ips))
	fmt.Printf("4K pages:      %d (%.1f MB footprint)\n",
		len(pages), float64(len(pages))*4096/1e6)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
