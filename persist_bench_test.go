// Benchmarks of the persistence subsystem, recorded alongside
// BenchmarkBatchApplyEngines in BENCH_PR4.json so dppr-benchdiff gates both
// the journaling hot path and the absence of overhead when journaling is
// off (BatchApplyEngines runs on an in-memory Tracker).
package dynppr_test

import (
	"os"
	"path/filepath"
	"testing"

	"dynppr"
	"dynppr/internal/ckpt"
	"dynppr/internal/graph"
	"dynppr/internal/wal"
)

// walBenchBatch builds a deterministic 1000-update batch.
func walBenchBatch(b *testing.B) dynppr.Batch {
	b.Helper()
	batch := make(dynppr.Batch, 1000)
	for i := range batch {
		op := dynppr.Insert
		if i%4 == 3 {
			op = dynppr.Delete
		}
		batch[i] = dynppr.Update{
			U: dynppr.VertexID(i * 7 % 5000), V: dynppr.VertexID(i * 13 % 5000), Op: op,
		}
	}
	return batch
}

// BenchmarkWALAppend measures the journaling hot path: encoding + appending
// one 1000-update batch record, with and without a per-append fsync. The
// sync=none number is the marginal cost ApplyBatch pays on a persistent
// service before any push work starts; sync=always adds the durability
// fsync and is dominated by the storage stack.
func BenchmarkWALAppend(b *testing.B) {
	batch := walBenchBatch(b)
	for _, tc := range []struct {
		name string
		sync wal.SyncPolicy
	}{
		{"sync=none", wal.SyncNone},
		{"sync=always", wal.SyncAlways},
	} {
		b.Run(tc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.log")
			l, _, err := wal.OpenOrCreate(path, 0, wal.Options{Sync: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(batch)), "updates/record")
			b.ReportMetric(float64(l.Size())/float64(b.N), "bytes/record")
		})
	}
}

// buildRecoveryDir builds a checkpoint-covered data directory: a service
// over an R-MAT sliding-window workload, a few applied batches, and a final
// checkpoint so the WAL is empty and recovery time is purely the checkpoint
// load. It returns the directory and the service options to recover with.
func buildRecoveryDir(b *testing.B, vertices, edges, nSources int, epsilon float64) (string, dynppr.ServiceOptions) {
	b.Helper()
	all, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "recovery-bench", Model: dynppr.ModelRMAT, Vertices: vertices, Edges: edges, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	stream := dynppr.NewStream(all, 4)
	window, initial := dynppr.NewSlidingWindow(stream, 0.5)
	g := dynppr.GraphFromEdges(initial)
	sources := g.TopDegreeVertices(nSources)

	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = epsilon

	dir := filepath.Join(b.TempDir(), "data")
	svc, err := dynppr.NewPersistentService(g, sources, so,
		dynppr.PersistOptions{Dir: dir, Sync: dynppr.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.ApplyBatch(window.Slide(200)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := svc.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, so
}

// downgradeCheckpoint rewrites the v2 CSR-image checkpoint at dir as the
// legacy v1 adjacency format holding the identical state — the
// "replay-from-edges" recovery the storage engine replaced.
func downgradeCheckpoint(b *testing.B, dir string) {
	b.Helper()
	path := filepath.Join(dir, "checkpoint")
	data, err := ckpt.LoadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	if data.CSR == nil {
		b.Fatal("pristine checkpoint is not a v2 CSR image")
	}
	n := data.CSR.NumVertices()
	data.Out = make([][]graph.VertexID, n)
	data.In = make([][]graph.VertexID, n)
	for v := 0; v < n; v++ {
		data.Out[v] = data.CSR.OutNeighbors(graph.VertexID(v))
		data.In[v] = data.CSR.InNeighbors(graph.VertexID(v))
	}
	data.CSR = nil
	if err := ckpt.WriteFile(path, data); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecovery measures a full recovery boot — checkpoint load, graph
// and push-state reconstruction — from a checkpoint-covered data directory,
// in both on-disk formats:
//
//   - format=image: the v2 CSR-image checkpoint; the decoded arrays become
//     the graph's base segment with no per-edge work.
//   - format=replay: the same state downgraded to the legacy v1 adjacency
//     format, whose load re-derives the CSR from per-vertex lists and (as on
//     any real v1 boot) pays the upgrade re-checkpoint.
//
// The CI gate asserts image >= 5x faster than replay at the 10M-edge scale.
// Each iteration recovers a pristine copy of the same directory. Run the
// n=1000000 size with -benchtime 1x.
func BenchmarkRecovery(b *testing.B) {
	for _, size := range []struct {
		name            string
		vertices, edges int
		nSources        int
		epsilon         float64
	}{
		{"n=3000", 3000, 30_000, 2, 1e-5},
		{"n=1000000", 1_000_000, 10_000_000, 1, 1e-4},
	} {
		b.Run(size.name, func(b *testing.B) {
			pristine, so := buildRecoveryDir(b, size.vertices, size.edges, size.nSources, size.epsilon)
			for _, format := range []struct {
				name      string
				downgrade bool
			}{
				{"image", false},
				{"replay", true},
			} {
				b.Run("format="+format.name, func(b *testing.B) {
					src := pristine
					if format.downgrade {
						src = filepath.Join(b.TempDir(), "v1")
						if err := os.MkdirAll(src, 0o755); err != nil {
							b.Fatal(err)
						}
						copyRecoveryDir(b, pristine, src)
						downgradeCheckpoint(b, src)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						dir := b.TempDir()
						copyRecoveryDir(b, src, dir)
						b.StartTimer()
						rec, err := dynppr.NewServiceFromRecovery(so, dynppr.PersistOptions{Dir: dir, Sync: dynppr.SyncNone})
						if err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						if err := rec.Close(); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
				})
			}
		})
	}
}

func copyRecoveryDir(b *testing.B, srcDir, dst string) {
	b.Helper()
	for _, name := range []string{"checkpoint", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
