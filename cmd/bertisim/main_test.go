package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/tracestore"
)

// small keeps each in-process run well under a second: a short generated
// trace and short windows at quick scale.
var small = []string{"-records", "20000", "-warmup", "20000", "-simulate", "50000"}

// bertisim runs the command in-process at quick scale and returns its exit
// code, stdout and stderr.
func bertisim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	t.Setenv("BERTI_SCALE", "quick")
	var stdout, stderr bytes.Buffer
	code := run(append(append([]string{}, small...), args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeTrace writes mcf_like_1554's generated trace (20000 records) as a v2
// container through tracestore.Write and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	scale := harness.ScaleQuick
	scale.MemRecords = 20000
	path := filepath.Join(t.TempDir(), "mcf.btr2")
	tr := harness.New(scale).MustTrace("mcf_like_1554", 0)
	err := campaign.WriteFileAtomic(path, func(w io.Writer) error {
		return tracestore.Write(w, tr, tracestore.Meta{Workload: "mcf_like_1554"})
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// jsonRun runs args with -json, requires exit 0 and returns the report.
func jsonRun(t *testing.T, args ...string) jsonReport {
	t.Helper()
	code, stdout, stderr := bertisim(t, append(args, "-json")...)
	if code != exitOK {
		t.Fatalf("%v: exit %d, want 0\n%s", args, code, stderr)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("%v: -json output does not decode: %v\n%s", args, err, stdout)
	}
	return rep
}

func TestJSONReport(t *testing.T) {
	rep := jsonRun(t, "-workload", "mcf_like_1554", "-l1d", "berti")
	if rep.SchemaVersion != obs.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", rep.SchemaVersion, obs.SchemaVersion)
	}
	if rep.Workload != "mcf_like_1554" || rep.L1DPf != "berti" {
		t.Errorf("report labels workload=%q l1d=%q", rep.Workload, rep.L1DPf)
	}
	if rep.IPC <= 0 || rep.Baseline <= 0 {
		t.Errorf("report IPC %v over baseline %v, want both positive", rep.IPC, rep.Baseline)
	}
}

// TestTraceHonoursDRAM: a -trace run goes through the same machine builder
// as -workload, so -dram changes its memory system.
func TestTraceHonoursDRAM(t *testing.T) {
	path := writeTrace(t)
	ddr5 := jsonRun(t, "-trace", path)
	ddr3 := jsonRun(t, "-trace", path, "-dram", "ddr3-1600")
	if ddr3.IPC >= ddr5.IPC {
		t.Fatalf("-trace IPC on DDR3-1600 = %v, on DDR5-6400 = %v: -dram must slow the run down", ddr3.IPC, ddr5.IPC)
	}
}

func TestUsageErrors(t *testing.T) {
	path := writeTrace(t)
	cases := []struct {
		name string
		args []string
	}{
		{"unknown workload", []string{"-workload", "no-such-workload"}},
		{"unknown prefetcher", []string{"-l1d", "no-such-pf"}},
		{"unknown prefetcher on a trace", []string{"-trace", path, "-l2", "no-such-pf"}},
		{"skip without trace", []string{"-skip", "1000"}},
		{"skip past the end", []string{"-trace", path, "-skip", "100000000"}},
		{"oracle on a trace", []string{"-trace", path, "-l1d", "oracle"}},
		{"unknown fault plan", []string{"-fault-plan", "no-such"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := bertisim(t, c.args...)
			if code != exitUsage {
				t.Fatalf("exit %d, want %d\n%s", code, exitUsage, stderr)
			}
			if stdout != "" {
				t.Fatalf("a usage error must print no report, got\n%s", stdout)
			}
		})
	}
}

func TestInjectedViolationsExit3(t *testing.T) {
	code, _, stderr := bertisim(t, "-workload", "mcf_like_1554", "-fault-plan", "dup-line:after=5000")
	if code != exitViolations {
		t.Fatalf("exit %d, want %d\n%s", code, exitViolations, stderr)
	}
	if !strings.Contains(stderr, "[dup-tag]") {
		t.Fatalf("the violation listing must name the dup-tag invariant\n%s", stderr)
	}
}

// TestTraceFaultsExit1: trace-level plans damage the v2 container bytes; the
// format's checks must fail the run with a located tracestore error.
func TestTraceFaultsExit1(t *testing.T) {
	path := writeTrace(t)
	for _, plan := range []string{"truncate", "corrupt-record"} {
		t.Run(plan, func(t *testing.T) {
			code, _, stderr := bertisim(t, "-trace", path, "-fault-plan", plan)
			if code != exitRunFailed {
				t.Fatalf("exit %d, want %d\n%s", code, exitRunFailed, stderr)
			}
			if !strings.Contains(stderr, "tracestore:") {
				t.Fatalf("the failure must name the tracestore damage\n%s", stderr)
			}
		})
	}
}

// TestOutputFiles: -timeseries-out and -provenance-out land through the
// atomic writer with the bytes their encoders produce, identical across
// runs, and leave no temp file beside them.
func TestOutputFiles(t *testing.T) {
	write := func(dir string) jsonReport {
		return jsonRun(t, "-workload", "mcf_like_1554", "-l1d", "berti", "-interval", "10000",
			"-timeseries-out", filepath.Join(dir, "ts.json"),
			"-provenance-out", filepath.Join(dir, "prov.csv"))
	}
	a, b := t.TempDir(), t.TempDir()
	rep := write(a)
	write(b)
	for _, name := range []string{"ts.json", "prov.csv"} {
		got, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !bytes.Equal(got, again) {
			t.Errorf("%s: %d bytes, rerun %d bytes: want identical non-empty files", name, len(got), len(again))
		}
	}
	// The time series file is the -json report's time_series, encoded the
	// way writeObservability encodes it.
	var want bytes.Buffer
	if err := encodeJSON(&want, rep.TimeSeries); err != nil {
		t.Fatal(err)
	}
	if ts, _ := os.ReadFile(filepath.Join(a, "ts.json")); !bytes.Equal(ts, want.Bytes()) {
		t.Errorf("ts.json differs from the report's time series (%d vs %d bytes)", len(ts), want.Len())
	}
	if prov, _ := os.ReadFile(filepath.Join(a, "prov.csv")); !bytes.HasPrefix(prov, []byte("# berti.provenance v2")) {
		t.Errorf("prov.csv does not start with its schema line:\n%.80s", prov)
	}
	for _, dir := range []string{a, b} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				t.Errorf("temp file %s left in %s", e.Name(), dir)
			}
		}
	}
}

// TestSchedTickedSameReport: -sched ticked runs a -trace file, which the
// scheduler-differential suite never sees, on the reference loop and
// prints the report the default scheduler prints.
func TestSchedTickedSameReport(t *testing.T) {
	path := writeTrace(t)
	var reports []string
	for _, sched := range []string{"horizon", "ticked"} {
		code, stdout, stderr := bertisim(t, "-trace", path, "-sched", sched)
		if code != exitOK {
			t.Fatalf("-sched %s: exit %d\n%s", sched, code, stderr)
		}
		reports = append(reports, stdout)
	}
	if reports[0] != reports[1] {
		t.Fatalf("-sched ticked report differs from -sched horizon:\n%s\nvs\n%s", reports[1], reports[0])
	}
}
