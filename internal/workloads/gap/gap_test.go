package gap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/bertisim/berti/internal/workloads"
)

// TestBuildCSRStructure builds a small graph from undirected samples, one of
// them repeated in the other orientation, and checks the whole CSR: both
// directions of every sample present, each list sorted, the duplicate gone.
func TestBuildCSRStructure(t *testing.T) {
	g := BuildCSR(4, [][2]uint32{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}, {1, 0}})
	if g.N != 4 {
		t.Fatalf("N=%d", g.N)
	}
	wantOff := []uint32{0, 3, 5, 7, 10}
	wantEdges := []uint32{1, 2, 3, 0, 3, 0, 3, 0, 1, 2}
	if !slices.Equal(g.Offsets, wantOff) || !slices.Equal(g.Edges, wantEdges) {
		t.Fatalf("CSR = %v / %v, want %v / %v", g.Offsets, g.Edges, wantOff, wantEdges)
	}
	if g.Degree(0) != 3 || g.Degree(3) != 3 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
	nb := g.Neighbors(3)
	if len(nb) != 3 || nb[0] != 0 || nb[1] != 1 || nb[2] != 2 {
		t.Fatalf("adjacency not sorted: %v", nb)
	}
}

// directedCSR is the reference builder: it takes every directed edge
// explicitly, places each in its source's list, then sorts and deduplicates
// into a fresh array.
func directedCSR(n int, edges [][2]uint32) *Graph {
	lists := make([][]uint32, n)
	for _, e := range edges {
		lists[e[0]] = append(lists[e[0]], e[1])
	}
	g := &Graph{N: n, Offsets: make([]uint32, n+1)}
	for v, nb := range lists {
		slices.Sort(nb)
		g.Edges = append(g.Edges, slices.Compact(nb)...)
		g.Offsets[v+1] = uint32(len(g.Edges))
	}
	return g
}

// Property: BuildCSR over undirected samples equals the reference builder
// over the explicitly symmetrized edge list, duplicates and hubs included.
func TestBuildCSRMatchesDirectedReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		samples := make([][2]uint32, rng.Intn(400))
		var edges [][2]uint32
		for i := range samples {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if rng.Intn(4) == 0 {
				u = 0 // a hub with many duplicates
			}
			samples[i] = [2]uint32{u, v}
			edges = append(edges, [2]uint32{u, v}, [2]uint32{v, u})
		}
		got, want := BuildCSR(n, samples), directedCSR(n, edges)
		return got.N == want.N && slices.Equal(got.Offsets, want.Offsets) &&
			slices.Equal(got.Edges, want.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKroneckerProperties(t *testing.T) {
	g := Kronecker(10, 8, 1)
	if g.N != 1024 {
		t.Fatalf("N=%d", g.N)
	}
	if len(g.Edges) == 0 {
		t.Fatal("no edges")
	}
	// Symmetrized: every edge has its reverse.
	for v := 0; v < 64; v++ {
		for _, u := range g.Neighbors(v) {
			found := false
			for _, w := range g.Neighbors(int(u)) {
				if int(w) == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d has no reverse", v, u)
			}
		}
	}
}

func TestKroneckerIsSkewed(t *testing.T) {
	g := Kronecker(12, 16, 2)
	maxDeg, sum := 0, 0
	for v := 0; v < g.N; v++ {
		d := g.Degree(v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := sum / g.N
	if maxDeg < avg*8 {
		t.Fatalf("RMAT should be heavily skewed: max=%d avg=%d", maxDeg, avg)
	}
}

func TestUrandIsNotSkewed(t *testing.T) {
	g := Urand(12, 16, 3)
	maxDeg, sum := 0, 0
	for v := 0; v < g.N; v++ {
		d := g.Degree(v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := sum / g.N
	if avg == 0 || maxDeg > avg*6 {
		t.Fatalf("urand should be near-uniform: max=%d avg=%d", maxDeg, avg)
	}
}

func TestRoadHasLowDegree(t *testing.T) {
	g := Road(12, 4)
	sum := 0
	for v := 0; v < g.N; v++ {
		sum += g.Degree(v)
	}
	if avg := float64(sum) / float64(g.N); avg > 6 {
		t.Fatalf("road average degree too high: %.1f", avg)
	}
}

// Property: CSR offsets are monotone and bounded by the edge count.
func TestCSROffsetsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g := Urand(8, 4, seed)
		for i := 0; i < g.N; i++ {
			if g.Offsets[i] > g.Offsets[i+1] {
				return false
			}
		}
		return int(g.Offsets[g.N]) == len(g.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceHasRegularAndIrregularIPs(t *testing.T) {
	w, ok := workloads.ByName("pr-kron")
	if !ok {
		t.Fatal("pr-kron not registered")
	}
	tr := w.Gen(workloads.GenConfig{MemRecords: 200000, Seed: 5})
	// The edge-scan IP must be present and sequential; the property IP
	// must be present and scattered. Skip the first chunk: PageRank
	// starts at the RMAT mega-hub, whose deduplicated neighbor list is a
	// dense prefix (gathers look sequential there).
	edgeIP := workloads.IP(202) // ipEdges
	propIP := workloads.IP(203) // ipProp
	var edgeAddrs, propAddrs []uint64
	for _, r := range tr.Records[120000:] {
		switch r.IP {
		case edgeIP:
			edgeAddrs = append(edgeAddrs, r.Addr)
		case propIP:
			propAddrs = append(propAddrs, r.Addr)
		}
	}
	if len(edgeAddrs) < 1000 || len(propAddrs) < 1000 {
		t.Fatalf("expected both IPs prominent: edges=%d props=%d", len(edgeAddrs), len(propAddrs))
	}
	monotone := 0
	for i := 1; i < len(edgeAddrs); i++ {
		if edgeAddrs[i] >= edgeAddrs[i-1] {
			monotone++
		}
	}
	if float64(monotone)/float64(len(edgeAddrs)) < 0.95 {
		t.Fatal("edge-scan IP should be near-monotone")
	}
	// RMAT hubs concentrate on low vertex ids, so many gathers are near
	// each other; still, a solid fraction must jump across lines.
	jumps := 0
	for i := 1; i < len(propAddrs); i++ {
		d := int64(propAddrs[i]) - int64(propAddrs[i-1])
		if d > 256 || d < -256 {
			jumps++
		}
	}
	if float64(jumps)/float64(len(propAddrs)) < 0.2 {
		t.Fatal("property IP should be scattered")
	}
}
