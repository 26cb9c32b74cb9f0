package harness

import (
	"context"
	"strings"
	"testing"

	"github.com/bertisim/berti/internal/metrics"
	"github.com/bertisim/berti/internal/sim"
)

// tinyScale keeps harness tests fast.
var tinyScale = Scale{Name: "tiny", MemRecords: 40_000, WarmupInstr: 30_000, SimInstr: 80_000, Mixes: 2}

// mustRun fails the test on a run error, which also exercises the happy
// error path of the hardened harness.
func mustRun(t *testing.T, h *Harness, spec RunSpec) *sim.Result {
	t.Helper()
	res, err := h.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run(%+v): %v", spec, err)
	}
	return res
}

func TestRunMemoizes(t *testing.T) {
	h := New(tinyScale)
	spec := RunSpec{Workload: "roms_like", L1DPf: "ip-stride"}
	a := mustRun(t, h, spec)
	b := mustRun(t, h, spec)
	if a != b {
		t.Fatal("identical specs must return the memoized result")
	}
}

func TestTraceMemoizes(t *testing.T) {
	h := New(tinyScale)
	if h.MustTrace("roms_like", 0) != h.MustTrace("roms_like", 0) {
		t.Fatal("trace not memoized")
	}
	if h.MustTrace("roms_like", 0) == h.MustTrace("roms_like", 1) {
		t.Fatal("different seeds must generate different traces")
	}
}

func TestRunManyOrder(t *testing.T) {
	h := New(tinyScale)
	specs := []RunSpec{
		{Workload: "roms_like"},
		{Workload: "roms_like", L1DPf: "next-line"},
	}
	out, err := h.RunManyContext(context.Background(), specs)
	if err != nil {
		t.Fatalf("RunManyContext: %v", err)
	}
	if len(out) != 2 || out[0] == nil || out[1] == nil {
		t.Fatal("RunManyContext results missing")
	}
	if out[0].L1DPfName != "" || out[1].L1DPfName != "next-line" {
		t.Fatalf("results out of order: %q %q", out[0].L1DPfName, out[1].L1DPfName)
	}
}

// TestScaleByName: the three predefined scales resolve by name, anything
// else does not, and $BERTI_SCALE reads the same table (default on a miss).
func TestScaleByName(t *testing.T) {
	for _, want := range []Scale{ScaleQuick, ScaleDefault, ScaleFull} {
		if got, ok := ScaleByName(want.Name); !ok || got != want {
			t.Fatalf("ScaleByName(%q) = %+v, %v", want.Name, got, ok)
		}
		t.Setenv("BERTI_SCALE", want.Name)
		if got := ScaleFromEnv(); got != want {
			t.Fatalf("BERTI_SCALE=%s picked %+v", want.Name, got)
		}
	}
	for _, name := range []string{"", "huge", "Quick"} {
		if _, ok := ScaleByName(name); ok {
			t.Fatalf("ScaleByName(%q) resolved", name)
		}
	}
	t.Setenv("BERTI_SCALE", "huge")
	if got := ScaleFromEnv(); got != ScaleDefault {
		t.Fatalf("unknown BERTI_SCALE picked %+v, want the default scale", got)
	}
}

func TestMemIntSuiteSplitsCorrectly(t *testing.T) {
	spec := MemIntSuite("spec")
	gap := MemIntSuite("gap")
	all := MemIntSuite("all")
	if len(all) != len(spec)+len(gap) {
		t.Fatalf("suite split inconsistent: %d + %d != %d", len(spec), len(gap), len(all))
	}
	if len(CloudSuiteNames()) < 4 {
		t.Fatal("cloud suite missing")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	if len(Experiments()) != 28 {
		t.Fatalf("registered %d experiments, want the paper's 28", len(Experiments()))
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("experiment %s registered twice", e.ID)
		}
		seen[e.ID] = true
		if e.ID == "" || e.Tables == nil || e.Desc == "" || e.Paper == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	if _, ok := ExperimentByID("Fig8L1DSpeedup"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Fatal("lookup invented an experiment")
	}
}

func TestMixesDeterministic(t *testing.T) {
	a := Mixes(4)
	b := Mixes(4)
	if len(a) != 4 || len(a[0]) != 4 {
		t.Fatalf("mix shape wrong: %v", a)
	}
	for i := range a {
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				t.Fatal("mixes must be deterministic")
			}
		}
	}
}

func TestTableExperimentsRunFast(t *testing.T) {
	h := New(tinyScale)
	for _, id := range []string{"Tab1Storage", "Tab2Config", "Tab3PrefConfig"} {
		e, _ := ExperimentByID(id)
		if metrics.Format(e.Tables(h.Runs(context.Background()))) == "" {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestTab1Reports255KB(t *testing.T) {
	h := New(tinyScale)
	e, _ := ExperimentByID("Tab1Storage")
	out := metrics.Format(e.Tables(h.Runs(context.Background())))
	if !strings.Contains(out, "2.55") {
		t.Fatalf("Table I must total 2.55 KB:\n%s", out)
	}
}

// TestBertiBeatsBaselineOnMCF is the repository's headline integration
// test: a full simulation of the mcf-like chain workload where Berti must
// clearly outperform the IP-stride baseline with high accuracy.
func TestBertiBeatsBaselineOnMCF(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	h := New(tinyScale)
	berti := mustRun(t, h, RunSpec{Workload: "mcf_like_1554", L1DPf: "berti"})
	base := mustRun(t, h, RunSpec{Workload: "mcf_like_1554", L1DPf: "ip-stride"})
	sp := SpeedupOver(berti, base)
	if sp < 1.3 {
		t.Fatalf("Berti speedup on mcf-like = %.3f, expected well above 1.3", sp)
	}
	if acc := berti.Cores[0].L1D.Accuracy(); acc < 0.8 {
		t.Fatalf("Berti accuracy = %.3f, paper reports ~0.87+", acc)
	}
}

// TestBertiFailsOnCactu checks the paper's negative result: hundreds of
// interleaved IPs overflow Berti's tables while MLOP's global view copes.
func TestBertiFailsOnCactu(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	h := New(tinyScale)
	berti := mustRun(t, h, RunSpec{Workload: "cactu_like", L1DPf: "berti"})
	mlop := mustRun(t, h, RunSpec{Workload: "cactu_like", L1DPf: "mlop"})
	base := mustRun(t, h, RunSpec{Workload: "cactu_like", L1DPf: "ip-stride"})
	if SpeedupOver(berti, base) > SpeedupOver(mlop, base)+0.01 {
		t.Fatalf("on cactu-like, MLOP (%.3f) must beat Berti (%.3f)",
			SpeedupOver(mlop, base), SpeedupOver(berti, base))
	}
}
