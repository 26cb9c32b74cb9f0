package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/workloads"
)

// goldenScale is the smallest scale that still warms the caches, misses to
// DRAM, writes back and trains every prefetcher: the golden suite pins the
// model's output, not its statistical quality, and must stay fast enough for
// every go test run.
var goldenScale = Scale{Name: "golden", MemRecords: 3_000, WarmupInstr: 2_000, SimInstr: 6_000}

// goldenFile holds one "<name> <sha256>" line per golden spec, sorted.
var goldenFile = filepath.Join("testdata", "golden_digests.txt")

// goldenCase is one pinned run: a spec plus the options it runs with.
type goldenCase struct {
	name string
	spec RunSpec
	opts *RunOptions // nil = memoized Run
}

// goldenCases enumerates the pinned runs: every workload with and without
// Berti, every registered prefetcher at its deployment level on mcf, the
// 4-core mix, and the simulation-level fault plans with the checker on.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, w := range workloads.All() {
		for _, pf := range []string{"", "berti"} {
			name := "workload/" + w.Name + "/none"
			if pf != "" {
				name = "workload/" + w.Name + "/" + pf
			}
			cs = append(cs, goldenCase{name: name, spec: RunSpec{Workload: w.Name, L1DPf: pf}})
		}
	}
	for _, e := range prefetch.All() {
		spec := RunSpec{Workload: "mcf_like_1554"}
		if e.Level == prefetch.AtL2 {
			spec.L2Pf = e.Name
		} else {
			spec.L1DPf = e.Name
		}
		cs = append(cs, goldenCase{name: "prefetcher/" + e.Name, spec: spec})
	}
	cs = append(cs, goldenCase{name: "mix4/berti", spec: RunSpec{
		Mix:   []string{"mcf_like_1554", "bfs-kron", "cassandra_like", "lbm_like"},
		L1DPf: "berti",
	}})
	// Fill plans count After in fill responses, dup-line in cycles.
	for _, p := range []fault.Plan{
		{Kind: fault.DropFill, Seed: 7, Rate: 0.02, After: 50},
		{Kind: fault.DelayFill, Seed: 7, Rate: 0.05, After: 50, Param: 3_000},
		{Kind: fault.DupLine, After: 1_000},
	} {
		p := p
		cs = append(cs, goldenCase{
			name: "fault/" + string(p.Kind),
			spec: RunSpec{Workload: "mcf_like_1554", L1DPf: "berti"},
			opts: &RunOptions{
				Fault:          &p,
				CheckInterval:  1_000,
				MSHRStuckAfter: 2_000,
				Watchdog:       20_000,
			},
		})
	}
	return cs
}

// TestGoldenResultDigests pins sha256(json.Marshal(sim.Result)) (plus the
// rendered error, for the fault plans) of every golden case against
// testdata/golden_digests.txt. The byte-identity suites compare two code
// paths of the same build; this one compares the build against the model
// as it was when the digests were recorded, so a hot-path refactor that
// moves any statistic fails here. Regenerate deliberately with
// UPDATE_GOLDEN=1 go test -run TestGoldenResultDigests ./internal/harness.
func TestGoldenResultDigests(t *testing.T) {
	cases := goldenCases()
	h := New(goldenScale)
	got := make(map[string]string, len(cases))
	var mu sync.Mutex
	t.Run("run", func(t *testing.T) {
		for _, gc := range cases {
			gc := gc
			t.Run(gc.name, func(t *testing.T) {
				t.Parallel()
				var b []byte
				if gc.opts == nil {
					res, err := h.Run(gc.spec)
					b = resultJSON(t, res, err)
				} else {
					opts := *gc.opts
					opts.Checker = check.New()
					res, err := h.RunWith(gc.spec, opts)
					b = resultJSON(t, res, err)
				}
				sum := sha256.Sum256(b)
				mu.Lock()
				got[gc.name] = hex.EncodeToString(sum[:])
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, n := range names {
			fmt.Fprintf(&sb, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(names), goldenFile)
		return
	}

	want := readGolden(t)
	for _, gc := range cases {
		w, ok := want[gc.name]
		if !ok {
			t.Errorf("%s: no recorded digest (regenerate with UPDATE_GOLDEN=1)", gc.name)
			continue
		}
		if got[gc.name] != w {
			t.Errorf("%s: result digest %s, recorded %s", gc.name, got[gc.name], w)
		}
	}
	if len(want) != len(cases) {
		t.Errorf("%s records %d digests, the suite runs %d cases", goldenFile, len(want), len(cases))
	}
}

// readGolden parses the recorded digest file.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("open golden digests: %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
