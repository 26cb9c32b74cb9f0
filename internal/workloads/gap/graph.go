// Package gap generates GAP benchmark suite-like traces by running real
// graph algorithms (BFS, PageRank, SSSP, Connected Components, Betweenness
// Centrality, Triangle Counting) over synthetic Kronecker (RMAT) and
// uniform-random graphs, emitting the virtual-address stream of the CSR
// data-structure walks each algorithm performs. The resulting traces carry
// the same structure the paper's GAP analysis relies on: one or two very
// regular streaming IPs (edge arrays) buried in per-vertex irregular
// accesses (property arrays), with genuine data-dependent serialization.
package gap

import (
	"math/rand"
	"slices"
)

// Graph is an immutable CSR graph.
type Graph struct {
	N       int      // vertices
	Offsets []uint32 // len N+1
	Edges   []uint32 // len M
}

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns v's adjacency slice.
func (g *Graph) Neighbors(v int) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// BuildCSR constructs a symmetric CSR graph from undirected edge samples:
// each sample {u, v} becomes the directed edges u->v and v->u. Adjacency
// lists are sorted and duplicate edges removed (as the GAP reference
// builder does; RMAT sampling produces many duplicates, especially on hub
// vertices). Storing each sample once and compacting the adjacency array in
// place keeps setup memory at one sample list plus the final edge array.
func BuildCSR(n int, samples [][2]uint32) *Graph {
	off := make([]uint32, n+1)
	for _, e := range samples {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]uint32, 2*len(samples))
	fill := make([]uint32, n)
	for _, e := range samples {
		u, v := e[0], e[1]
		adj[off[u]+fill[u]] = v
		fill[u]++
		adj[off[v]+fill[v]] = u
		fill[v]++
	}
	// Sort and dedup each vertex's list, sliding it down over the
	// duplicates already dropped. off[v] still holds v's old start when
	// the list is sliced and is then rewritten to its compacted start.
	var w uint32
	for v := 0; v < n; v++ {
		nb := adj[off[v]:off[v+1]]
		slices.Sort(nb)
		off[v] = w
		var prev uint32
		for i, u := range nb {
			if i > 0 && u == prev {
				continue
			}
			adj[w] = u
			w++
			prev = u
		}
	}
	off[n] = w
	return &Graph{N: n, Offsets: off, Edges: adj[:w]}
}

// Kronecker generates an RMAT graph with 2^scale vertices and
// degree*2^scale directed edges (both directions added so traversals reach
// most of the graph), using the GAP generator's a/b/c parameters.
func Kronecker(scale, degree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := n * degree / 2
	samples := make([][2]uint32, 0, m)
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: nothing to set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		samples = append(samples, [2]uint32{uint32(u), uint32(v)})
	}
	return BuildCSR(n, samples)
}

// Urand generates a uniform-random graph with 2^scale vertices and
// degree*2^scale directed edges (symmetrized).
func Urand(scale, degree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := n * degree / 2
	samples := make([][2]uint32, 0, m)
	for i := 0; i < m; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		samples = append(samples, [2]uint32{u, v})
	}
	return BuildCSR(n, samples)
}

// Road generates a road-network-like graph: a 2D grid with mostly local
// connectivity plus sparse shortcuts (high diameter, degree ~4).
func Road(scale int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	side := 1
	for side*side < n {
		side *= 2
	}
	n = side * side
	samples := make([][2]uint32, 0, 2*n+n/64)
	add := func(u, v int) {
		if u != v && u >= 0 && v >= 0 && u < n && v < n {
			samples = append(samples, [2]uint32{uint32(u), uint32(v)})
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			u := y*side + x
			if x+1 < side {
				add(u, u+1)
			}
			if y+1 < side {
				add(u, u+side)
			}
		}
	}
	// Sparse shortcuts (highways).
	for i := 0; i < n/64; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return BuildCSR(n, samples)
}
