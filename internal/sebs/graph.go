// Package sebs implements the compute-intensive functions of the SeBS
// serverless benchmark suite used in §V-D of the paper — bfs, mst, and
// pagerank — as real algorithms over generated graphs, plus the sleep
// function used by the responsiveness experiment of §V-C. Fig. 7 runs
// these exact implementations under two platform speed models.
package sebs

import "repro/internal/dist"

// Graph is a directed graph in compressed adjacency form. For the MST
// benchmark the graph is interpreted as undirected with edge weights.
type Graph struct {
	N       int
	AdjOff  []int32 // length N+1; edges of v are Adj[AdjOff[v]:AdjOff[v+1]]
	Adj     []int32
	Weights []float64 // parallel to Adj (used by MST)
}

// Edges returns the number of directed edges.
func (g *Graph) Edges() int { return len(g.Adj) }

// Out returns the adjacency slice of v.
func (g *Graph) Out(v int32) []int32 { return g.Adj[g.AdjOff[v]:g.AdjOff[v+1]] }

// GenerateGraph builds a pseudo-random graph with n vertices and
// average out-degree deg, deterministically for a seed. Edge endpoints
// follow a preferential-bias mix (80% uniform, 20% to low ids) so the
// degree distribution is skewed like the Graph500/SeBS inputs.
func GenerateGraph(n, deg int, seed int64) *Graph {
	if n <= 0 || deg <= 0 {
		panic("sebs: graph needs positive size and degree")
	}
	r := dist.NewRand(seed)
	m := n * deg
	g := &Graph{
		N:       n,
		AdjOff:  make([]int32, n+1),
		Adj:     make([]int32, m),
		Weights: make([]float64, m),
	}
	// Draw per-vertex degrees around deg (±deg/2), then lay out edges.
	degrees := make([]int32, n)
	remaining := m
	for v := 0; v < n; v++ {
		d := deg/2 + r.Intn(deg+1)
		if d > remaining {
			d = remaining
		}
		if v == n-1 {
			d = remaining
		}
		degrees[v] = int32(d)
		remaining -= d
	}
	off := int32(0)
	for v := 0; v < n; v++ {
		g.AdjOff[v] = off
		off += degrees[v]
	}
	g.AdjOff[n] = off
	for v := 0; v < n; v++ {
		for i := g.AdjOff[v]; i < g.AdjOff[v+1]; i++ {
			var to int32
			if r.Float64() < 0.2 {
				// Preferential: low ids act as hubs.
				to = int32(r.Intn(n/16 + 1))
			} else {
				to = int32(r.Intn(n))
			}
			g.Adj[i] = to
			g.Weights[i] = r.Float64()*9.0 + 1.0
		}
	}
	return g
}
