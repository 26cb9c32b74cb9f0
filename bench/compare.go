package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// runFile is what -out writes: one run of one or every workload.
type runFile struct {
	Host      host                `json:"host"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Traced    bool                `json:"traced"`
	Workloads map[string]*outcome `json:"workloads"`
}

// benchmarkDef is the part of BENCHMARK.json compare needs.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// row is one (workload, metric) comparison.
type row struct {
	workload, metric string
	base, next       [3]float64 // quartiles: q1, median, q3
	wins, pairs      int
	verdict          string
}

// verdict applies the paired-run rule. A gain needs the change to win at
// least nine tenths of the pairs (ties count for neither) and the medians
// to differ by more than the parent's own quartile spread. A regression is
// a median worse than the parent's by more than the bound. Either spread
// wider than the bound leaves the metric unresolved, unless every run of
// the change beats every run of the parent.
func verdict(better string, bound float64, base, next []float64) row {
	r := row{pairs: min(len(base), len(next))}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	beats := func(a, b float64) bool { return sign*(a-b) > 0 }
	for i := 0; i < r.pairs; i++ {
		if beats(next[i], base[i]) {
			r.wins++
		}
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			allBetter = allBetter && beats(n, b)
		}
	}
	r.base[0], r.base[1], r.base[2] = quartiles(base)
	r.next[0], r.next[1], r.next[2] = quartiles(next)
	spread := max(ratio(r.base[2]-r.base[0], r.base[1]), ratio(r.next[2]-r.next[0], r.next[1]))
	worse := ratio(sign*(r.base[1]-r.next[1]), r.base[1])
	switch {
	case spread > bound && !allBetter:
		r.verdict = "unresolved"
	case worse > bound:
		r.verdict = "regression"
	case 10*r.wins >= 9*r.pairs && sign*(r.next[1]-r.base[1]) > r.base[2]-r.base[0]:
		r.verdict = "gain"
	default:
		r.verdict = "no change"
	}
	return r
}

// compareRuns pairs base[i] with next[i] and compares every end-to-end
// metric of every workload, one row per (workload, metric).
func compareRuns(bm *benchmarkDef, base, next []*runFile) []row {
	var rows []row
	for _, w := range bm.Workloads {
		for _, e := range bm.EndToEnd {
			var bv, nv []float64
			for i := range base {
				b, n := base[i].Workloads[w.Name], next[i].Workloads[w.Name]
				if b == nil || n == nil {
					continue
				}
				bx, bok := b.Metrics[e.Name]
				nx, nok := n.Metrics[e.Name]
				if bok && nok {
					bv, nv = append(bv, bx.Value), append(nv, nx.Value)
				}
			}
			if len(bv) == 0 {
				continue
			}
			r := verdict(e.Better, e.Bound, bv, nv)
			r.workload, r.metric = w.Name, e.Name
			rows = append(rows, r)
		}
	}
	return rows
}

// compareMain implements `compare base1.json new1.json [base2.json
// new2.json ...]`: files alternate parent, change. It exits 1 when any
// metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound and direction")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) < 2 || len(files)%2 != 0 {
		fmt.Fprintln(stderr, "usage: compare [-benchmark BENCHMARK.json] base1.json new1.json [base2.json new2.json ...]")
		return 2
	}
	var bm benchmarkDef
	if err := readJSON(*defPath, &bm); err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var base, next []*runFile
	for i, path := range files {
		var rf runFile
		if err := readJSON(path, &rf); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		if i%2 == 0 {
			base = append(base, &rf)
		} else {
			next = append(next, &rf)
		}
	}
	rows := compareRuns(&bm, base, next)
	fmt.Fprintf(stdout, "%-16s %-15s %-34s %-34s %-6s %s\n", "workload", "metric", "base q1/median/q3", "new q1/median/q3", "wins", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-16s %-15s %-34s %-34s %-6s %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g/%.4g/%.4g", r.base[0], r.base[1], r.base[2]),
			fmt.Sprintf("%.4g/%.4g/%.4g", r.next[0], r.next[1], r.next[2]),
			fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
		if r.verdict == "regression" {
			code = 1
		}
	}
	return code
}
