package harness

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/bertisim/berti/internal/tracestore"
	"github.com/bertisim/berti/internal/workloads"
)

// streamScale keeps the identity sweep fast while still crossing several
// chunk boundaries per trace.
var streamScale = Scale{Name: "stream-test", MemRecords: 24_000, WarmupInstr: 20_000, SimInstr: 50_000}

// writeContainer writes the generated trace of workload (seed 0) as a v2
// container at path.
func writeContainer(t *testing.T, h *Harness, workload, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracestore.Write(f, h.MustTrace(workload, 0), tracestore.Meta{Workload: workload}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingStatsIdentity: a corpus-backed streaming run, and a
// trace-file spec over a container of the same generated trace, must each
// produce byte-identical statistics (compared through the JSON encoding,
// the shape the tools emit) to the in-memory path, on every seed workload.
// This is the acceptance bar for replacing whole-trace-in-RAM simulation
// with the tracestore pipeline.
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
	corpusDir, traceDir := t.TempDir(), t.TempDir()
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

			path := filepath.Join(traceDir, name+".btr2")
			writeContainer(t, mem, name, path)
			fileRes, err := New(streamScale).RunContext(context.Background(), RunSpec{TraceFile: path, L1DPf: "berti"})
			if err != nil {
				t.Fatalf("trace-file run: %v", err)
			}
			fileJSON, err := json.Marshal(fileRes)
			if err != nil {
				t.Fatal(err)
			}
			if string(memJSON) != string(fileJSON) {
				t.Fatalf("trace-file stats diverge from in-memory stats\nmem:  %s\nfile: %s", memJSON, fileJSON)
			}
		})
	}
}

// TestTraceFileKey: a trace file enters the memo key by its content, so a
// copy at another path keys the same and a container of different records
// keys differently; specs without a trace file keep their key and their
// JSON encoding.
func TestTraceFileKey(t *testing.T) {
	h := New(streamScale)
	dir := t.TempDir()
	a, c := filepath.Join(dir, "a.btr2"), filepath.Join(dir, "c.btr2")
	writeContainer(t, h, "mcf_like_1554", a)
	writeContainer(t, h, "lbm_like", c)
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "copy"), 0o755); err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "copy", "b.btr2")
	if err := os.WriteFile(b, data, 0o644); err != nil {
		t.Fatal(err)
	}

	key := func(path string, skip uint64) string {
		return RunSpec{TraceFile: path, Skip: skip, L1DPf: "berti"}.Key()
	}
	if key(a, 0) != key(b, 0) {
		t.Errorf("a copied container keys differently:\n%s\n%s", key(a, 0), key(b, 0))
	}
	if key(a, 0) == key(c, 0) {
		t.Errorf("containers of different records share key %s", key(a, 0))
	}
	if key(a, 0) == key(a, 1000) {
		t.Errorf("Skip is missing from key %s", key(a, 0))
	}

	gen := RunSpec{Workload: "mcf_like_1554", L1DPf: "berti"}
	if got, want := gen.Key(), "w=mcf_like_1554|mix=[]|l1=berti|l2=|dram=|seed=0"; got != want {
		t.Errorf("generated-workload key = %s, want %s", got, want)
	}
	j, err := json.Marshal(gen)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Workload":"mcf_like_1554","Mix":null,"L1DPf":"berti","L2Pf":"","DRAMCfg":"","BertiOverride":null,"Seed":0}`; string(j) != want {
		t.Errorf("generated-workload spec JSON = %s, want %s", j, want)
	}
}

// TestTraceFileSpecErrors: the run itself refuses contradictory trace-file
// specs and a skip at or past the end of the trace with a typed
// *SpecError naming the field, before simulating anything.
func TestTraceFileSpecErrors(t *testing.T) {
	h := New(streamScale)
	path := filepath.Join(t.TempDir(), "t.btr2")
	writeContainer(t, h, "mcf_like_1554", path)
	f, err := tracestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	instr := f.Meta().Instructions
	f.Close()

	cases := []struct {
		spec  RunSpec
		field string
	}{
		{RunSpec{TraceFile: path, Workload: "mcf_like_1554"}, "TraceFile"},
		{RunSpec{TraceFile: path, L1DPf: "oracle"}, "L1DPf"},
		{RunSpec{Workload: "mcf_like_1554", Skip: 1}, "Skip"},
		{RunSpec{TraceFile: path, Skip: instr}, "Skip"},
		{RunSpec{TraceFile: path, Skip: instr + 1}, "Skip"},
	}
	for _, c := range cases {
		_, err := h.RunContext(context.Background(), c.spec)
		var se *SpecError
		if !errors.As(err, &se) || se.Field != c.field {
			t.Errorf("RunContext(%+v) = %v, want *SpecError on %s", c.spec, err, c.field)
		}
	}
	if _, err := h.RunContext(context.Background(), RunSpec{TraceFile: path, Skip: instr - 1}); err != nil {
		t.Errorf("a skip inside the trace must run: %v", err)
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
