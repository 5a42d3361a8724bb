// Benchmarks regenerating the paper's evaluation figures (Section 5) and the
// ablations called out in DESIGN.md. Each BenchmarkFigN_* runs the harness
// for that figure on a reduced dataset and reports the headline quantity of
// the figure as a custom metric, so `go test -bench=. -benchmem` reproduces
// the whole evaluation at laptop scale. For the full-size tables use
// `go run ./cmd/dppr-bench`.
package dynppr_test

import (
	"fmt"
	"sync"
	"testing"

	"dynppr"
	"dynppr/internal/bench"
	"dynppr/internal/gen"
	"dynppr/internal/push"
)

// benchParams returns harness parameters sized for benchmarking: one small
// power-law dataset, a handful of slides per measurement.
func benchParams() (bench.Params, []gen.Dataset) {
	p := bench.QuickParams()
	p.Slides = 5
	p.Epsilon = 1e-6
	p.Workers = 0
	datasets := []gen.Dataset{
		{Config: gen.Config{Name: "bench-rmat", Model: gen.RMAT, Vertices: 2000, Edges: 30000, Seed: 7}},
	}
	return p, datasets
}

// BenchmarkFig4_OptimizationEffect regenerates Figure 4: latency of the four
// parallel-push variants. Reported metric: speedup of Opt over Vanilla.
func BenchmarkFig4_OptimizationEffect(b *testing.B) {
	p, ds := benchParams()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunOptimizationEffect(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "Opt" {
				speedup = r.SpeedupOverVanilla
			}
		}
	}
	b.ReportMetric(speedup, "opt-speedup-vs-vanilla")
}

// BenchmarkFig5_Throughput regenerates Figure 5: streaming throughput of
// every approach. Reported metrics: CPU-MT and CPU-Seq edges/sec at the
// largest batch size.
func BenchmarkFig5_Throughput(b *testing.B) {
	p, ds := benchParams()
	var mt, seq float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunThroughput(p, ds, []bench.Approach{
			bench.ApproachSeq, bench.ApproachMT, bench.ApproachLigra, bench.ApproachMonteCarlo,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Approach {
			case bench.ApproachMT:
				mt = r.EdgesPerSecond
			case bench.ApproachSeq:
				seq = r.EdgesPerSecond
			}
		}
	}
	b.ReportMetric(mt, "mt-edges/sec")
	b.ReportMetric(seq, "seq-edges/sec")
}

// BenchmarkFig6_Epsilon regenerates Figure 6: latency as ε tightens.
func BenchmarkFig6_Epsilon(b *testing.B) {
	p, ds := benchParams()
	p.EpsilonGrid = []float64{1e-4, 1e-6}
	var tight float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunEpsilonSweep(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Approach == bench.ApproachMT && r.Epsilon == 1e-6 {
				tight = float64(r.MeanLatency.Microseconds())
			}
		}
	}
	b.ReportMetric(tight, "mt-latency-us@1e-6")
}

// BenchmarkFig7_SourceDegree regenerates Figure 7: latency by source-degree
// bucket.
func BenchmarkFig7_SourceDegree(b *testing.B) {
	p, ds := benchParams()
	var highDeg float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunSourceDegree(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Approach == bench.ApproachMT {
				highDeg = float64(r.MeanLatency.Microseconds())
				break
			}
		}
	}
	b.ReportMetric(highDeg, "mt-latency-us-top-bucket")
}

// BenchmarkFig8_BatchSize regenerates Figure 8: latency across batch ratios.
func BenchmarkFig8_BatchSize(b *testing.B) {
	p, ds := benchParams()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunBatchSize(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Approach == bench.ApproachMT && r.Ratio == p.BatchRatios[0] {
				speedup = r.SpeedupOverSeq
			}
		}
	}
	b.ReportMetric(speedup, "mt-speedup-vs-seq@largest-batch")
}

// BenchmarkFig9_Resource regenerates Figure 9: resource-consumption proxies
// across batch sizes. Reported metric: mean frontier occupancy at the largest
// batch size (the warp-occupancy proxy).
func BenchmarkFig9_Resource(b *testing.B) {
	p, ds := benchParams()
	var occupancy float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunResourceProfile(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 0 {
			occupancy = rows[0].MeanFrontier
		}
	}
	b.ReportMetric(occupancy, "mean-frontier@largest-batch")
}

// BenchmarkFig10_Scalability regenerates Figure 10: throughput versus worker
// count. Reported metric: speedup of the largest worker count over one
// worker.
func BenchmarkFig10_Scalability(b *testing.B) {
	p, ds := benchParams()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunScalability(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 0 {
			speedup = rows[len(rows)-1].SpeedupOverOneWorker
		}
	}
	b.ReportMetric(speedup, "speedup-max-vs-1-worker")
}

// ---------------------------------------------------------------------------
// Ablation and micro benchmarks on the public API.

func buildBenchWorkload(b *testing.B, vertices, edges int) ([]dynppr.Edge, *dynppr.Graph, dynppr.VertexID) {
	return buildBenchWorkloadSplit(b, vertices, edges, edges*9/10)
}

// buildBenchWorkloadSplit generates the R-MAT universe and seeds the graph
// with the first split edges; the remainder becomes the mutation batch.
func buildBenchWorkloadSplit(b *testing.B, vertices, edges, split int) ([]dynppr.Edge, *dynppr.Graph, dynppr.VertexID) {
	b.Helper()
	all, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "micro", Model: dynppr.ModelRMAT, Vertices: vertices, Edges: edges, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := dynppr.GraphFromEdges(all[:split])
	source := g.TopDegreeVertices(1)[0]
	return all[split:], g, source
}

func benchmarkTrackerBatch(b *testing.B, opts dynppr.Options) {
	benchmarkTrackerBatchSized(b, opts, 3000, 60000)
}

func benchmarkTrackerBatchSized(b *testing.B, opts dynppr.Options, vertices, edges int) {
	benchmarkTrackerBatchSplit(b, opts, vertices, edges, edges*9/10)
}

func benchmarkTrackerBatchSplit(b *testing.B, opts dynppr.Options, vertices, edges, split int) {
	inserts, g, source := buildBenchWorkloadSplit(b, vertices, edges, split)
	tracker, err := dynppr.NewTracker(g, source, opts)
	if err != nil {
		b.Fatal(err)
	}
	// Build one insert batch and one compensating delete batch so the graph
	// returns to its original state every two iterations; this keeps the
	// measured work stable across b.N.
	insertBatch := make(dynppr.Batch, 0, len(inserts))
	deleteBatch := make(dynppr.Batch, 0, len(inserts))
	for _, e := range inserts {
		insertBatch = append(insertBatch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
		deleteBatch = append(deleteBatch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Delete})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tracker.ApplyBatch(insertBatch)
		} else {
			tracker.ApplyBatch(deleteBatch)
		}
	}
	b.ReportMetric(float64(len(insertBatch)), "updates/batch")
}

// BenchmarkAblation_EagerPropagation quantifies the benefit of eager
// propagation: Opt versus DupDetect-only (Table 3 column difference).
func BenchmarkAblation_EagerPropagation(b *testing.B) {
	for _, v := range []struct {
		name    string
		variant dynppr.Variant
	}{
		{"eager-on", dynppr.VariantOpt},
		{"eager-off", dynppr.VariantDupDetect},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts := dynppr.DefaultOptions()
			opts.Epsilon = 1e-6
			opts.Variant = v.variant
			benchmarkTrackerBatch(b, opts)
		})
	}
}

// BenchmarkAblation_LocalDuplicateDetection quantifies the benefit of local
// duplicate detection: Opt versus Eager-only.
func BenchmarkAblation_LocalDuplicateDetection(b *testing.B) {
	for _, v := range []struct {
		name    string
		variant dynppr.Variant
	}{
		{"localdup-on", dynppr.VariantOpt},
		{"localdup-off", dynppr.VariantEager},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts := dynppr.DefaultOptions()
			opts.Epsilon = 1e-6
			opts.Variant = v.variant
			benchmarkTrackerBatch(b, opts)
		})
	}
}

// BenchmarkAblation_ParallelLoss compares the vanilla parallel push against
// the sequential push on identical batches — the runtime counterpart of
// Lemma 4.
func BenchmarkAblation_ParallelLoss(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		opts := dynppr.DefaultOptions()
		opts.Engine = dynppr.EngineSequential
		opts.Epsilon = 1e-6
		benchmarkTrackerBatch(b, opts)
	})
	b.Run("parallel-vanilla", func(b *testing.B) {
		opts := dynppr.DefaultOptions()
		opts.Variant = dynppr.VariantVanilla
		opts.Epsilon = 1e-6
		benchmarkTrackerBatch(b, opts)
	})
	b.Run("parallel-opt", func(b *testing.B) {
		opts := dynppr.DefaultOptions()
		opts.Variant = dynppr.VariantOpt
		opts.Epsilon = 1e-6
		benchmarkTrackerBatch(b, opts)
	})
}

// BenchmarkAblation_SortAggregate compares the atomic neighbor-update method
// against the sorting-and-aggregate alternative the paper describes and
// rejects in Section 3.1 (footnote 2) — measured here at the engine level on
// cold-start convergence, where frontiers are largest.
func BenchmarkAblation_SortAggregate(b *testing.B) {
	_, g, source := buildBenchWorkload(b, 3000, 60000)
	cfg := push.Config{Alpha: 0.15, Epsilon: 1e-6}
	run := func(b *testing.B, engine push.Engine) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := push.NewState(g.Clone(), source, cfg)
			if err != nil {
				b.Fatal(err)
			}
			engine.Run(st, []dynppr.VertexID{source})
		}
	}
	b.Run("atomic", func(b *testing.B) { run(b, push.NewParallel(push.VariantVanilla, 0)) })
	b.Run("sort-aggregate", func(b *testing.B) { run(b, push.NewSortAggregate(0)) })
}

// BenchmarkEngine_BatchVsSingleUpdate compares batch processing against
// per-update processing (CPU-Seq vs CPU-Base), the paper's first claim.
func BenchmarkEngine_BatchVsSingleUpdate(b *testing.B) {
	for _, m := range []struct {
		name string
		mode dynppr.UpdateMode
	}{
		{"batch", dynppr.BatchMode},
		{"single-update", dynppr.SingleUpdateMode},
	} {
		b.Run(m.name, func(b *testing.B) {
			opts := dynppr.DefaultOptions()
			opts.Engine = dynppr.EngineSequential
			opts.Mode = m.mode
			opts.Epsilon = 1e-6
			benchmarkTrackerBatch(b, opts)
		})
	}
}

// BenchmarkEngine_VertexCentric measures the Ligra-style baseline on the same
// workload as the specialized engines.
func BenchmarkEngine_VertexCentric(b *testing.B) {
	opts := dynppr.DefaultOptions()
	opts.Engine = dynppr.EngineVertexCentric
	opts.Epsilon = 1e-6
	benchmarkTrackerBatch(b, opts)
}

// BenchmarkBatchApplyEngines is the PR 3 performance-trajectory benchmark
// (BENCH_PR3.json): batch apply on a large synthetic workload, sequential
// versus the deterministic parallel engine versus the atomic parallel
// engine. Run it with `-cpu 1,4` so GOMAXPROCS 1 and 4 both appear in the
// stream; the CI gate asserts that deterministic-at-4 beats sequential-at-4
// by at least 1.5x and diffs the whole stream against the committed
// baseline with dppr-benchdiff.
func BenchmarkBatchApplyEngines(b *testing.B) {
	for _, e := range []struct {
		name   string
		engine dynppr.EngineKind
	}{
		{"sequential", dynppr.EngineSequential},
		{"deterministic", dynppr.EngineDeterministic},
		{"parallel-opt", dynppr.EngineParallel},
	} {
		b.Run("engine="+e.name, func(b *testing.B) {
			opts := dynppr.DefaultOptions()
			opts.Engine = e.engine
			opts.Epsilon = 1e-6
			// Workers/Parallelism 0 = GOMAXPROCS, so -cpu drives the
			// degree of parallelism.
			benchmarkTrackerBatchSized(b, opts, 10000, 200000)
		})
	}
}

// BenchmarkBatchApplyEngines10M is the storage-engine scale point: the same
// batch-apply measurement as BenchmarkBatchApplyEngines but on a 1M-vertex /
// 10M-edge R-MAT graph with ~20k-update batches — large enough that the
// graph's CSR base no longer fits in cache and the LSM delta/compaction
// machinery, not the push arithmetic, decides the steady-state throughput.
// ε is relaxed to 1e-4 to keep the cold start affordable; the per-batch push
// work is still millions of edge traversals. Run with -benchtime 1x (each
// iteration applies a full 20k-update batch).
func BenchmarkBatchApplyEngines10M(b *testing.B) {
	const (
		vertices = 1_000_000
		edges    = 10_000_000
		batch    = 20_000
	)
	b.Run("engine=deterministic", func(b *testing.B) {
		opts := dynppr.DefaultOptions()
		opts.Engine = dynppr.EngineDeterministic
		opts.Epsilon = 1e-4
		benchmarkTrackerBatchSplit(b, opts, vertices, edges, edges-batch)
	})
}

// serviceApplyEdges is the R-MAT edge list shared by the BenchmarkServiceApply
// sub-benchmarks, generated once per process.
var serviceApplyEdges struct {
	once  sync.Once
	edges []dynppr.Edge
	err   error
}

// BenchmarkServiceApply measures the Service write path on the shape of the
// serving benchmark's ingest workload: a 100k-vertex / 1M-edge R-MAT graph
// whose edges arrive in a seeded order, the first half as the initial
// window, the top out-degree vertices as tracked sources, default
// ServiceOptions, and Slide(100) batches (100 arrivals plus 100 expiries).
// The service is in-memory, so the journal is out of the picture and each
// op is one pipelined batch: graph apply, invariant restore, the push of
// every source and snapshot publication. Every run measures the same batch
// prefix of the window, so -benchtime Nx streams are comparable run to run.
func BenchmarkServiceApply(b *testing.B) {
	const (
		vertices = 100_000
		edges    = 1_000_000
		slide    = 100
	)
	serviceApplyEdges.once.Do(func() {
		serviceApplyEdges.edges, serviceApplyEdges.err = dynppr.GenerateEdges(dynppr.SyntheticConfig{
			Name: "service-apply", Model: dynppr.ModelRMAT, Vertices: vertices, Edges: edges, Seed: 1,
		})
	})
	if serviceApplyEdges.err != nil {
		b.Fatal(serviceApplyEdges.err)
	}
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sources=%d", k), func(b *testing.B) {
			window, initial := dynppr.NewSlidingWindow(dynppr.NewStream(serviceApplyEdges.edges, 1), 0.5)
			g := dynppr.GraphFromEdges(initial)
			svc, err := dynppr.NewService(g, g.TopDegreeVertices(k), dynppr.DefaultServiceOptions())
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			batches := make([]dynppr.Batch, b.N)
			for i := range batches {
				batches[i] = window.Slide(slide)
			}
			var pushes int64
			b.ResetTimer()
			for _, batch := range batches {
				res, err := svc.ApplyBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				pushes += res.Pushes
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/batch")
			b.ReportMetric(float64(pushes)/float64(b.N), "pushes/batch")
		})
	}
}

// topKBench holds the lazily built 200k-vertex serving pair shared by the
// BenchmarkTopK subbenchmarks: one service with the incremental Top-K index,
// one with the index disabled (the dense-scan baseline), both converged over
// the same R-MAT graph with a small batch applied so the read path sees a
// post-batch snapshot.
var topKBench struct {
	once    sync.Once
	indexed *dynppr.Service
	dense   *dynppr.Service
	source  dynppr.VertexID
	err     error
}

func topKBenchSetup() {
	const vertices, edges = 200_000, 1_000_000
	all, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "topk-bench", Model: dynppr.ModelRMAT, Vertices: vertices, Edges: edges, Seed: 11,
	})
	if err != nil {
		topKBench.err = err
		return
	}
	split := edges - 200
	opts := dynppr.DefaultOptions()
	opts.Engine = dynppr.EngineDeterministic
	opts.Epsilon = 1e-4
	batch := make(dynppr.Batch, 0, edges-split)
	for _, e := range all[split:] {
		batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
	}
	build := func(topKCap int) (*dynppr.Service, dynppr.VertexID, error) {
		g := dynppr.GraphFromEdges(all[:split])
		source := g.TopDegreeVertices(1)[0]
		svc, err := dynppr.NewService(g, []dynppr.VertexID{source}, dynppr.ServiceOptions{
			Options: opts, PoolWorkers: 1, TopKCap: topKCap,
		})
		if err != nil {
			return nil, 0, err
		}
		if _, err := svc.ApplyBatch(batch); err != nil {
			svc.Close()
			return nil, 0, err
		}
		return svc, source, nil
	}
	if topKBench.indexed, topKBench.source, topKBench.err = build(0); topKBench.err != nil {
		return
	}
	topKBench.dense, _, topKBench.err = build(-1)
}

// BenchmarkTopK contrasts the two TopK read paths on a 200k-vertex R-MAT
// workload: path=indexed serves from the incrementally maintained Top-K
// index embedded in the snapshot (O(k)), path=dense is the heap scan over
// the full estimate vector (O(n log k)) that every query paid before. The
// CI gate (dppr-benchdiff -slow dense -fast indexed) asserts the speedup;
// both paths recycle the result buffer, so the steady state is 0 allocs/op.
func BenchmarkTopK(b *testing.B) {
	topKBench.once.Do(topKBenchSetup)
	if topKBench.err != nil {
		b.Fatal(topKBench.err)
	}
	for _, path := range []struct {
		name string
		svc  *dynppr.Service
	}{
		{"indexed", topKBench.indexed},
		{"dense", topKBench.dense},
	} {
		b.Run("path="+path.name, func(b *testing.B) {
			var buf []dynppr.VertexScore
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _, err = path.svc.AppendTopK(buf[:0], topKBench.source, 10)
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(buf) != 10 {
				b.Fatalf("got %d results", len(buf))
			}
		})
	}
}

// BenchmarkTrackerColdStart measures from-scratch convergence on a static
// graph (the d/ε term of the complexity bound).
func BenchmarkTrackerColdStart(b *testing.B) {
	_, g, source := buildBenchWorkload(b, 3000, 60000)
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynppr.NewTracker(g.Clone(), source, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphMutation measures the raw dynamic-graph substrate.
func BenchmarkGraphMutation(b *testing.B) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "mut", Model: dynppr.ModelErdosRenyi, Vertices: 10000, Edges: 100000, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := dynppr.NewGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if g.HasEdge(e.U, e.V) {
			if err := g.RemoveEdge(e.U, e.V); err != nil {
				b.Fatal(err)
			}
		} else if _, err := g.AddEdge(e.U, e.V); err != nil {
			b.Fatal(err)
		}
	}
}
