// Command dppr-stream demonstrates live dynamic-PPR maintenance: it replays a
// synthetic edge stream through a sliding window, applies each slide to a
// Tracker, and reports per-batch latency, cumulative throughput and the
// current top-ranked vertices.
//
// Usage:
//
//	dppr-stream -dataset pokec -batch 100 -slides 50
//	dppr-stream -vertices 5000 -edges 100000 -engine sequential -epsilon 1e-6
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dynppr"
	"dynppr/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dppr-stream:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dppr-stream", flag.ContinueOnError)
	var (
		dataset  = fs.String("dataset", "youtube", "named dataset from the catalog")
		input    = fs.String("input", "", "load the edge stream from a 'u v' edge-list file instead of generating it")
		vertices = fs.Int("vertices", 0, "override: generate an RMAT graph with this many vertices")
		edges    = fs.Int("edges", 0, "override: number of edges for the generated graph")
		batch    = fs.Int("batch", 100, "edges inserted (and deleted) per window slide")
		slides   = fs.Int("slides", 20, "number of window slides to replay")
		epsilon  = fs.Float64("epsilon", 1e-6, "error threshold")
		engine   = fs.String("engine", "parallel", "engine: parallel, sequential, vertex-centric, deterministic")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		topK     = fs.Int("top", 5, "number of top-ranked vertices to print at the end")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var edgeList []dynppr.Edge
	sourceName := *dataset
	if *input != "" {
		var err error
		edgeList, err = dynppr.LoadEdges(*input)
		if err != nil {
			return err
		}
		sourceName = *input
	} else {
		cfg, err := resolveConfig(*dataset, *vertices, *edges, *seed)
		if err != nil {
			return err
		}
		sourceName = cfg.Name
		edgeList, err = dynppr.GenerateEdges(cfg)
		if err != nil {
			return err
		}
	}
	if len(edgeList) == 0 {
		return fmt.Errorf("no edges in the input stream")
	}
	stream := dynppr.NewStream(edgeList, *seed)
	window, initial := dynppr.NewSlidingWindow(stream, 0.1)
	g := dynppr.GraphFromEdges(initial)
	source := g.TopDegreeVertices(1)[0]

	opts := dynppr.DefaultOptions()
	opts.Epsilon = *epsilon
	opts.Workers = *workers
	var err error
	if opts.Engine, err = dynppr.ParseEngineKind(*engine); err != nil {
		return err
	}

	fmt.Fprintf(out, "dataset=%s vertices=%d window=%d source=%d engine=%s epsilon=%.0e\n",
		sourceName, g.NumVertices(), window.Size(), source, opts.Engine, opts.Epsilon)

	start := time.Now()
	tr, err := dynppr.NewTracker(g, source, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cold start converged in %v (%d pushes)\n",
		time.Since(start).Round(time.Microsecond), tr.Counters().Pushes)

	var totalUpdates int
	var totalLatency time.Duration
	for i := 0; i < *slides; i++ {
		b := window.Slide(*batch)
		if len(b) == 0 {
			fmt.Fprintln(out, "stream exhausted")
			break
		}
		res := tr.ApplyBatch(b)
		totalUpdates += res.Applied
		totalLatency += res.Latency
		fmt.Fprintf(out, "slide %3d: updates=%4d latency=%-12v pushes=%d\n",
			i+1, res.Applied, res.Latency.Round(time.Microsecond), res.Pushes)
	}
	if totalLatency > 0 {
		fmt.Fprintf(out, "throughput: %.0f updates/sec over %d updates\n",
			float64(totalUpdates)/totalLatency.Seconds(), totalUpdates)
	}

	fmt.Fprintf(out, "top-%d vertices by PPR towards %d:\n", *topK, source)
	for _, vs := range tr.TopK(*topK) {
		fmt.Fprintf(out, "  vertex %-8d score %.6f\n", vs.Vertex, vs.Score)
	}
	return nil
}

func resolveConfig(dataset string, vertices, edges int, seed int64) (dynppr.SyntheticConfig, error) {
	if vertices > 0 && edges > 0 {
		return dynppr.SyntheticConfig{
			Name: "custom-rmat", Model: dynppr.ModelRMAT,
			Vertices: vertices, Edges: edges, Seed: seed,
		}, nil
	}
	d, err := gen.DatasetByName(dataset)
	if err != nil {
		return dynppr.SyntheticConfig{}, err
	}
	return d.Config, nil
}
