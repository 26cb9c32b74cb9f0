package harness

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/bertisim/berti/internal/workloads"
)

// streamScale keeps the identity sweep fast while still crossing several
// chunk boundaries per trace.
var streamScale = Scale{Name: "stream-test", MemRecords: 24_000, WarmupInstr: 20_000, SimInstr: 50_000}

// TestStreamingStatsIdentity: a corpus-backed streaming run must produce
// byte-identical statistics (compared through the JSON encoding, the shape
// the tools emit) to the in-memory path, on every seed workload. This is
// the acceptance bar for replacing whole-trace-in-RAM simulation with the
// tracestore pipeline.
func TestStreamingStatsIdentity(t *testing.T) {
	names := make([]string, 0, 32)
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if len(names) == 0 {
		t.Fatal("no workloads registered")
	}
	if testing.Short() {
		names = names[:4]
	}
	corpusDir := t.TempDir()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{Workload: name, L1DPf: "berti"}

			mem := New(streamScale)
			memRes, err := mem.RunContext(context.Background(), spec)
			if err != nil {
				t.Fatalf("in-memory run: %v", err)
			}
			streamed := New(streamScale)
			streamed.CorpusDir = corpusDir
			streamRes, err := streamed.RunContext(context.Background(), spec)
			if err != nil {
				t.Fatalf("streaming run: %v", err)
			}

			memJSON, err := json.Marshal(memRes)
			if err != nil {
				t.Fatal(err)
			}
			streamJSON, err := json.Marshal(streamRes)
			if err != nil {
				t.Fatal(err)
			}
			if string(memJSON) != string(streamJSON) {
				t.Fatalf("streaming stats diverge from in-memory stats\nmem:    %s\nstream: %s", memJSON, streamJSON)
			}
		})
	}
}

// TestStreamingMixIdentity covers the multi-core looping path: mixes replay
// finished traces, so the streaming loop reader must wrap exactly like
// trace.LoopReader.
func TestStreamingMixIdentity(t *testing.T) {
	mix := []string{"mcf_like_1554", "lbm_like"}
	spec := RunSpec{Mix: mix, L1DPf: "berti", Seed: 1}

	mem := New(streamScale)
	memRes, err := mem.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatalf("in-memory mix run: %v", err)
	}
	streamed := New(streamScale)
	streamed.CorpusDir = t.TempDir()
	streamRes, err := streamed.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatalf("streaming mix run: %v", err)
	}
	memJSON, _ := json.Marshal(memRes)
	streamJSON, _ := json.Marshal(streamRes)
	if string(memJSON) != string(streamJSON) {
		t.Fatalf("streaming mix stats diverge\nmem:    %s\nstream: %s", memJSON, streamJSON)
	}
}

// TestRunManyPool: the bounded pool must preserve spec ordering and produce
// the same results as the unbounded path, at any worker count.
func TestRunManyPool(t *testing.T) {
	specs := []RunSpec{
		{Workload: "mcf_like_1554", L1DPf: "berti"},
		{Workload: "mcf_like_1554", L1DPf: "ip-stride"},
		{Workload: "lbm_like", L1DPf: "berti"},
		{Workload: "lbm_like", L1DPf: ""},
	}
	var want []string
	for workers := 1; workers <= 3; workers++ {
		h := New(streamScale)
		h.Workers = workers
		results, err := h.RunManyContext(context.Background(), specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var got []string
		for i, r := range results {
			if r == nil {
				t.Fatalf("workers=%d: slot %d nil", workers, i)
			}
			j, _ := json.Marshal(r)
			got = append(got, string(j))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d: slot %d diverges from workers=1", workers, i)
			}
		}
	}
}
