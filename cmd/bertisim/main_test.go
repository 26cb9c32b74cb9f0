package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := harness.New(scale).MustTrace("mcf_like_1554", 0)
	if err := tracestore.Write(f, tr, tracestore.Meta{Workload: "mcf_like_1554"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
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
