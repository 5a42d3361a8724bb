// BenchmarkOnDemandQuery contrasts the three tiers of the serving model on
// R-MAT graphs: path=tracked reads the live incrementally-maintained
// snapshot, path=ondemand pays a bounded cold push per query, and
// path=promoted is a formerly cold source after the admission cache moved it
// to live tracking — the parity the CI gate asserts (a promoted read must
// serve at tracked speed, not on-demand speed).
package dynppr_test

import (
	"fmt"
	"sync"
	"testing"

	"dynppr"
)

// TestOnDemandSnapshotTouchedProportional pins the cost model of the cold
// query's setup step structurally: after a small batch dirties a handful of
// vertices, the next cold query's epoch-pinned view must layer only those
// vertices' delta segments over the shared CSR base — not rebuild a full
// CSR. LastSnapshotDeltaEdges is exactly the entries the view copied, so it
// must scale with the batch, not with the graph.
func TestOnDemandSnapshotTouchedProportional(t *testing.T) {
	const vertices = 20_000
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: vertices, Edges: 5 * vertices, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := dynppr.DefaultServiceOptions().Options
	opts.Epsilon = 1e-4
	g := dynppr.GraphFromEdges(edges)
	tracked := g.TopDegreeVertices(1)[0]
	// Disable automatic compaction so the measured delta cost is the
	// batch's own footprint, not whatever survived a background merge.
	svc, err := dynppr.NewService(g, []dynppr.VertexID{tracked}, dynppr.ServiceOptions{
		Options: opts, PoolWorkers: 1, CompactAfterDeltaEdges: -1,
		OnDemand: dynppr.OnDemandOptions{Enabled: true, Epsilon: 1e-4, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cold := dynppr.GraphFromEdges(edges).TopDegreeVertices(16)[15]

	// Cold query against the untouched graph: FromEdges built a pure CSR
	// base, so the pinned view must report zero delta entries.
	if _, _, err := svc.QueryTopK(cold, 10); err != nil {
		t.Fatal(err)
	}
	stats := svc.Stats()
	if stats.OnDemand == nil {
		t.Fatal("on-demand stats missing")
	}
	if got := stats.OnDemand.LastSnapshotDeltaEdges; got != 0 {
		t.Fatalf("compacted-base snapshot reports %d delta entries, want 0", got)
	}
	builds := stats.OnDemand.SnapshotBuilds

	// A 50-update batch touches at most 100 vertices. Each effective update
	// adds 2 delta entries and each first touch of a vertex materializes
	// its adjacency, so the view's delta cost is bounded by the touched
	// vertices' degrees — here tail vertices of the R-MAT skew, so orders
	// of magnitude below the 2(n+m) a full CSR rebuild would copy.
	const batchSize = 50
	batch := make(dynppr.Batch, 0, batchSize)
	for i := 0; i < batchSize; i++ {
		batch = append(batch, dynppr.Update{
			U:  dynppr.VertexID(vertices - 1 - i*13),
			V:  dynppr.VertexID(vertices - 2 - i*17),
			Op: dynppr.Insert,
		})
	}
	if _, err := svc.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.QueryTopK(cold, 10); err != nil {
		t.Fatal(err)
	}
	stats = svc.Stats()
	if stats.OnDemand.SnapshotBuilds <= builds {
		t.Fatal("mutation did not force a fresh on-demand snapshot")
	}
	delta := stats.OnDemand.LastSnapshotDeltaEdges
	if delta == 0 {
		t.Fatal("post-batch snapshot reports no delta entries: view is not layering over the base")
	}
	full := int64(2 * (vertices + len(edges)))
	if delta >= full/100 {
		t.Fatalf("snapshot copied %d delta entries — not touched-proportional against a full rebuild's %d", delta, full)
	}
}

// odBenchState is the lazily built per-size fixture: one service that never
// promotes and never caches (so path=ondemand and path=coalesced pay a real
// cold push on every miss across all b.N iterations), one with the result
// cache enabled (path=cached measures the hit path), and one that promotes
// after 3 queries (providing both the tracked baseline and the promoted
// source).
type odBenchState struct {
	once      sync.Once
	odOnly    *dynppr.Service
	cachedSvc *dynppr.Service
	promo     *dynppr.Service
	tracked   dynppr.VertexID
	cold      dynppr.VertexID
	promoted  dynppr.VertexID
	err       error
}

var odBench = map[int]*odBenchState{10_000: {}, 200_000: {}}

func (st *odBenchState) setup(vertices int) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "ondemand-bench", Model: dynppr.ModelRMAT,
		Vertices: vertices, Edges: 5 * vertices, Seed: 11,
	})
	if err != nil {
		st.err = err
		return
	}
	opts := dynppr.DefaultServiceOptions().Options
	opts.Epsilon = 1e-4
	build := func(promoteAfter, resultCache int) (*dynppr.Service, dynppr.VertexID, error) {
		g := dynppr.GraphFromEdges(edges)
		source := g.TopDegreeVertices(1)[0]
		svc, err := dynppr.NewService(g, []dynppr.VertexID{source}, dynppr.ServiceOptions{
			Options: opts, PoolWorkers: 1,
			OnDemand: dynppr.OnDemandOptions{
				Enabled: true, Epsilon: 1e-4, Seed: 3,
				PromoteAfter: promoteAfter, MaxAutoSources: 4,
				ResultCache: resultCache,
			},
		})
		return svc, source, err
	}
	// The push-path fixtures disable the result cache: every iteration must
	// pay (or coalesce onto) a real cold push, not a cache hit.
	if st.odOnly, st.tracked, st.err = build(0, -1); st.err != nil {
		return
	}
	if st.cachedSvc, _, st.err = build(0, 0); st.err != nil {
		return
	}
	if st.promo, _, st.err = build(3, -1); st.err != nil {
		return
	}
	// A mid-degree vertex keeps the cold query representative: neither the
	// hub the tracked path serves nor an isolated leaf.
	st.cold = dynppr.GraphFromEdges(edges).TopDegreeVertices(16)[15]
	st.promoted = st.cold
	for i := 0; i < 3; i++ {
		if _, _, err := st.promo.QueryTopK(st.promoted, 10); err != nil {
			st.err = err
			return
		}
	}
	// The third query promotes synchronously; fail loudly if it did not.
	if _, info, err := st.promo.QueryTopK(st.promoted, 10); err != nil || info.Approx {
		st.err = fmt.Errorf("source %d not promoted after 3 queries (info %+v, err %v)",
			st.promoted, info, err)
	}
}

func BenchmarkOnDemandQuery(b *testing.B) {
	for _, vertices := range []int{10_000, 200_000} {
		st := odBench[vertices]
		b.Run(fmt.Sprintf("n=%d", vertices), func(b *testing.B) {
			st.once.Do(func() { st.setup(vertices) })
			if st.err != nil {
				b.Fatal(st.err)
			}
			for _, path := range []struct {
				name       string
				svc        *dynppr.Service
				source     dynppr.VertexID
				wantApprox bool
			}{
				{"tracked", st.promo, st.tracked, false},
				{"ondemand", st.odOnly, st.cold, true},
				{"promoted", st.promo, st.promoted, false},
			} {
				b.Run("path="+path.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						top, info, err := path.svc.QueryTopK(path.source, 10)
						if err != nil {
							b.Fatal(err)
						}
						if info.Approx != path.wantApprox || len(top) == 0 {
							b.Fatalf("path %s: approx=%t results=%d", path.name, info.Approx, len(top))
						}
					}
				})
			}
			// path=cached measures the result-cache hit path: one priming
			// query pays the push, every timed iteration must hit.
			b.Run("path=cached", func(b *testing.B) {
				if _, info, err := st.cachedSvc.QueryTopK(st.cold, 10); err != nil || !info.Approx {
					b.Fatalf("priming query: approx=%t err=%v", info.Approx, err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					top, info, err := st.cachedSvc.QueryTopK(st.cold, 10)
					if err != nil {
						b.Fatal(err)
					}
					if !info.Cached || len(top) == 0 {
						b.Fatalf("cached path missed: cached=%t results=%d", info.Cached, len(top))
					}
				}
			})
			// path=coalesced hammers one cold source from all procs with the
			// cache disabled: concurrent identical queries share a single
			// in-flight push, so the per-query cost amortizes the cold push
			// across the waiters.
			b.Run("path=coalesced", func(b *testing.B) {
				b.ReportAllocs()
				// Waiters block on the shared flight rather than burning CPU,
				// so oversubscribing GOMAXPROCS still measures real sharing
				// even on a single-core runner.
				b.SetParallelism(4)
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						top, info, err := st.odOnly.QueryTopK(st.cold, 10)
						if err != nil {
							b.Fatal(err)
						}
						if !info.Approx || len(top) == 0 {
							b.Fatalf("coalesced path: approx=%t results=%d", info.Approx, len(top))
						}
					}
				})
			})
		})
	}
}
