package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"dynppr/internal/graph"
	"dynppr/internal/httpapi"
	"dynppr/internal/power"
)

// oracleSlack absorbs the reference's own error: power iteration stops at an
// L1 change of 1e-12, far below every ε the daemon advertises.
const oracleSlack = 1e-9

// longtailSample picks checkTailRanks untracked sources the longtail traffic
// actually queries: seeded draws from popularity ranks [16, 256).
func longtailSample(seed int64, n int, tracked []graph.VertexID) []graph.VertexID {
	perm := popularity(n)
	isTracked := map[graph.VertexID]bool{}
	for _, s := range tracked {
		isTracked[s] = true
	}
	rng := rand.New(rand.NewSource(seed + 57))
	var out []graph.VertexID
	seen := map[graph.VertexID]bool{}
	for len(out) < checkTailRanks {
		s := graph.VertexID(perm[16+rng.Intn(240)])
		if !isTracked[s] && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// verify is the oracle gate run after recovery, outside the timed phase.
// The recovered daemon must hold exactly the replica's edges, and for every
// tracked source plus the long-tail sample its top-k ranking and one
// estimate must lie within their advertised ε of power iteration on the
// replica. Every check is one attempted request in t.
func verify(c *conn, replica *graph.Graph, tail []graph.VertexID, seed int64, t *tally) error {
	st, err := c.c.Stats()
	switch {
	case err != nil:
		t.fail(errClass("stats", err))
	case st.Service.Edges != replica.NumEdges():
		t.fail(fmt.Sprintf("recovered daemon holds %d edges, replica %d", st.Service.Edges, replica.NumEdges()))
	default:
		t.ok()
	}
	tracked, err := c.c.Sources()
	if err != nil {
		t.fail(errClass("sources", err))
		return nil
	}
	t.ok()
	sources := append(append([]graph.VertexID(nil), tracked...), tail...)

	csr := replica.Snapshot()
	exact := make([][]float64, len(sources))
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	next := make(chan int, len(sources))
	for i := range sources {
		next <- i
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				exact[i], errs[i] = power.Reverse(csr, sources[i], power.DefaultOptions())
			}
		}()
	}
	wg.Wait()

	rng := rand.New(rand.NewSource(seed + 71))
	for i, s := range sources {
		if errs[i] != nil {
			return fmt.Errorf("reference PPR for source %d: %w", s, errs[i])
		}
		ex := exact[i]
		res, err := c.c.TopK(s, topK)
		if err != nil {
			t.fail(errClass("oracle topk", err))
			continue
		}
		bound := res.Snapshot.Epsilon
		if res.Approx {
			bound = res.Epsilon
		}
		if v := checkTopK(ex, res.Results, bound); v != "" {
			t.fail(fmt.Sprintf("oracle topk source %d: %s", s, v))
		} else {
			t.ok()
		}
		v := graph.VertexID(rng.Intn(len(ex)))
		est, err := c.c.Estimate(s, v)
		if err != nil {
			t.fail(errClass("oracle estimate", err))
			continue
		}
		bound = est.Snapshot.Epsilon
		if est.Approx {
			bound = est.Epsilon
		}
		if d := math.Abs(est.Score - ex[v]); d > bound+oracleSlack {
			t.fail(fmt.Sprintf("oracle estimate source %d vertex %d: off by %g > ε %g", s, v, d, bound))
		} else {
			t.ok()
		}
	}
	return nil
}

// checkTopK checks a ranking against exact scores: every reported score is
// within bound of the truth, and no unreported vertex beats the k-th
// reported score by more than bound (the ranking of ε-accurate estimates
// can only miss vertices that close).
func checkTopK(exact []float64, results []httpapi.VertexScore, bound float64) string {
	if len(results) == 0 {
		return "empty ranking"
	}
	in := map[graph.VertexID]bool{}
	for _, r := range results {
		if int(r.Vertex) >= len(exact) || r.Vertex < 0 {
			return fmt.Sprintf("vertex %d out of range", r.Vertex)
		}
		if d := math.Abs(r.Score - exact[r.Vertex]); d > bound+oracleSlack {
			return fmt.Sprintf("vertex %d score %g off by %g > ε %g", r.Vertex, r.Score, d, bound)
		}
		in[r.Vertex] = true
	}
	kth := results[len(results)-1].Score
	for v, x := range exact {
		if !in[graph.VertexID(v)] && x > kth+bound+oracleSlack && len(results) >= topK {
			return fmt.Sprintf("vertex %d (exact %g) missing from a ranking ending at %g", v, x, kth)
		}
	}
	return ""
}
