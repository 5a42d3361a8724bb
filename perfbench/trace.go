package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynppr"
	"dynppr/internal/ckpt"
	"dynppr/internal/edgeio"
	"dynppr/internal/fp"
	"dynppr/internal/graph"
	"dynppr/internal/httpapi"
	"dynppr/internal/parallel"
	"dynppr/internal/push"
	"dynppr/internal/stream"
	"dynppr/internal/vc"
	"dynppr/internal/wal"
)

// span is one timed call into a layer. Spans of one request or batch share
// Req; Parent is the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; the traced pass is single-goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newReq() int { t.req++; return t.req }

// add records a finished span.
func (t *tracer) add(name string, parent, req int, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// timed runs f as a span; f receives the span's id for its children, which
// it records before returning.
func (t *tracer) timed(name string, parent, req int, f func(id int)) time.Duration {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	start := time.Now()
	f(id)
	end := time.Now()
	t.spans[id-1].Start, t.spans[id-1].End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	return end.Sub(start)
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n           int
	total, self time.Duration
}

func (s spanStats) mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.total / time.Duration(s.n)
}

// aggregate sums duration and self time per span name. Self time is the
// span's duration minus the union of its children's intervals within it.
func aggregate(spans []span) map[string]spanStats {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, cursor int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cursor), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return time.Duration(total)
}

// traceCaps bound the traced replay so a traced run stays well inside its
// time limit; the per-call means do not need every batch of the e2e run.
const (
	traceMaxBatches = 20
	traceMaxReads   = 4000
	traceColdPushes = 16
)

// traceCounts are counts the traced pass takes at layer boundaries.
type traceCounts struct {
	queueMax                         int
	deltaPeak, compactions           int
	compactAt                        []bool // batches after which the traced service began a compaction
	push                             push.Config
	coldMaxPushes                    int64 // the on-demand push cap the traced service was given
	truncated                        int   // traced on-demand answers cut short by that cap
	compactAmp                       []float64
	updates, applied                 int64
	restore                          time.Duration // apply-and-notify minus its graph mutations
	pushes, propagations, iterations int64
	runs                             int64
	fullPub, deltaPub, rebuilds      uint64
	walBytes                         int64
	ckptBytes                        int
	coldPushes                       []float64
	odBefore, odAfter                dynppr.OnDemandStats
	answers, approx                  int
	e2eWriteMean, e2eReadMean        time.Duration
}

// runTrace is the traced in-process pass over the same seed: (a) the
// workload's request sequence against dynppr.Service and httpapi.Handler,
// (b) the same batches and sources replayed through graph, push, wal and
// ckpt in Service.doBatch order. It writes the span file and returns the
// per-layer metrics.
func runTrace(sp spec, seed int64, dirs runDirs, in *inputs, e2e *e2eResult, out io.Writer) (map[string]metric, error) {
	tr := newTracer()
	c := &traceCounts{e2eWriteMean: e2e.writes.mean(), e2eReadMean: e2e.reads.mean()}
	nBatches := min(max(e2e.batches, 1), traceMaxBatches)
	readsPerBatch := max(1, min(len(e2e.reads.snapshot())/max(e2e.batches, 1), traceMaxReads/nBatches))
	engineName, err := traceService(tr, c, sp, seed, dirs, in, nBatches, readsPerBatch)
	if err != nil {
		return nil, fmt.Errorf("traced service pass: %w", err)
	}
	if err := traceLayers(tr, c, sp, seed, dirs, in, nBatches, engineName); err != nil {
		return nil, fmt.Errorf("traced layer replay: %w", err)
	}
	agg := aggregate(tr.spans)
	path, err := writeSpans(tr, sp.name, seed, e2e.prov)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(agg, tr.spans, c, e2e)
	printTrace(out, agg, m, path)
	return m, nil
}

// serviceOptions mirrors what dppr-httpd builds from the workload's flags.
func serviceOptions(sp spec) dynppr.ServiceOptions {
	so := dynppr.DefaultServiceOptions()
	if sp.odEps > 0 {
		so.OnDemand = dynppr.OnDemandOptions{
			Enabled: true, Epsilon: sp.odEps, Seed: 1,
			PromoteAfter: sp.promoteAfter, MaxAutoSources: sp.maxAutoSources,
		}
	}
	return so
}

func traceService(tr *tracer, c *traceCounts, sp spec, seed int64, dirs runDirs, in *inputs, nBatches, readsPerBatch int) (string, error) {
	var (
		edges   []graph.Edge
		g       *graph.Graph
		svc     *dynppr.Service
		err     error
		sources []graph.VertexID
		n       int
	)
	so := serviceOptions(sp)
	po := dynppr.PersistOptions{Dir: dirs.data("trace-service"), Sync: dynppr.SyncAlways}
	defer os.RemoveAll(po.Dir)
	setup := tr.newReq()
	tr.timed("setup", 0, setup, func(id int) {
		tr.timed("edgeio.load", id, setup, func(int) { edges, err = edgeio.LoadFile(dirs.edges) })
		if err != nil {
			return
		}
		tr.timed("graph.build", id, setup, func(int) { g = graph.FromEdges(edges) })
		sources = g.TopDegreeVertices(numSources)
		n = g.NumVertices() // the service owns g from here on
		tr.timed("service.cold_start", id, setup, func(int) { svc, err = dynppr.NewPersistentService(g, sources, so, po) })
	})
	if err != nil {
		return "", err
	}
	defer svc.Close()
	opts := svc.Options()
	c.push = push.Config{Alpha: opts.Options.Alpha, Epsilon: opts.Options.Epsilon}
	c.coldMaxPushes = opts.OnDemand.MaxPushes
	st := svc.Stats()
	h := httpapi.NewServer(svc, httpapi.ServerOptions{Addr: "127.0.0.1:0"}).Handler()
	if st.OnDemand != nil {
		c.odBefore = *st.OnDemand
	}
	gens := []*readGen{newReadGen(sp.name, seed, 0, sources, n), newReadGen(sp.name, seed, 1, sources, n)}
	window := in.window()
	ctx := context.Background()
	noteQueue := func() { c.queueMax = max(c.queueMax, svc.Queue().Depth) }
	// compactionStarts counts compactions begun: installed plus in flight.
	// The layer replay compacts after the same batches the service did.
	compactionStarts := func() int64 {
		s := svc.Stats().Storage
		if s.CompactionInFlight {
			return s.Compactions + 1
		}
		return s.Compactions
	}
	started := compactionStarts()

	for i := 0; i < nBatches; i++ {
		b := window.Slide(sp.batchSlide)
		req := tr.newReq()
		if i%2 == 0 {
			// Half the batches go through the HTTP handler, half straight
			// to the service, so each layer is timed on its own calls.
			body, _ := json.Marshal(httpapi.EdgesRequest{Updates: httpapi.FromBatch(b)})
			var rec *httptest.ResponseRecorder
			noteQueue()
			tr.timed("httpapi.edges", 0, req, func(int) {
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(string(body))))
			})
			if rec.Code != http.StatusOK {
				return "", fmt.Errorf("POST /edges: %d %s", rec.Code, rec.Body.String())
			}
		} else {
			var res dynppr.BatchResult
			noteQueue()
			tr.timed("service.apply", 0, req, func(id int) {
				res, err = svc.ApplyBatchCtx(ctx, b)
				end := time.Now()
				tr.add("service.batch", id, req, end.Add(-res.Latency), end)
			})
			if err != nil {
				return "", err
			}
		}
		if sp.ckptEvery > 0 && (i+1)%sp.ckptEvery == 0 {
			tr.timed("persist.checkpoint", 0, tr.newReq(), func(int) { _, err = svc.Checkpoint() })
			if err != nil {
				return "", err
			}
		}
		now := compactionStarts()
		c.compactAt = append(c.compactAt, now > started)
		started = now
		for j := 0; j < readsPerBatch; j++ {
			if err := traceRead(tr, c, sp, svc, h, gens[j%2].nextRead(), i*readsPerBatch+j); err != nil {
				return "", err
			}
		}
	}
	if st := svc.Stats(); st.OnDemand != nil {
		c.odAfter = *st.OnDemand
	}

	// Recovery: checkpoint, a WAL suffix, then a restart on the directory.
	tr.timed("persist.checkpoint", 0, tr.newReq(), func(int) { _, err = svc.Checkpoint() })
	if err != nil {
		return "", err
	}
	for i := 0; i < suffixBatches; i++ {
		if _, err := svc.ApplyBatch(window.Slide(sp.batchSlide)); err != nil {
			return "", err
		}
	}
	if err := svc.Close(); err != nil {
		return "", err
	}
	var rec *dynppr.Service
	tr.timed("persist.recover", 0, tr.newReq(), func(int) { rec, err = dynppr.NewServiceFromRecovery(so, po) })
	if err != nil {
		return "", err
	}
	return st.Engine, rec.Close()
}

// traceRead times one generated read against the service and the handler.
// Tracked reads are pure snapshot reads, so each is issued to both and the
// pair shares a request id. On-demand reads are not repeatable (a repeat
// would hit the result cache and count twice towards promotion), so on the
// longtail workload reads alternate between the two.
func traceRead(tr *tracer, c *traceCounts, sp spec, svc *dynppr.Service, h *httpapi.Handler, r readReq, i int) error {
	req := tr.newReq()
	var err error
	ctx := context.Background()
	if sp.odEps == 0 || i%2 == 0 {
		switch r.kind {
		case reqTopK:
			if sp.odEps > 0 {
				var qi dynppr.QueryInfo
				var d time.Duration
				start := time.Now()
				_, qi, err = svc.QueryTopKOpts(ctx, r.source, topK, dynppr.QueryOptions{})
				d = time.Since(start)
				name := "ondemand.query.tracked"
				switch {
				case qi.Approx && qi.Cached:
					name = "ondemand.query.cached"
				case qi.Approx:
					name = "ondemand.query.cold"
				}
				c.answers++
				if qi.Approx {
					c.approx++
				}
				if qi.Truncated {
					c.truncated++
				}
				tr.add(name, 0, req, start, start.Add(d))
			} else {
				tr.timed("service.topk", 0, req, func(int) { _, _, err = svc.TopKInfo(r.source, topK) })
			}
		case reqEstimate:
			tr.timed("service.estimate", 0, req, func(int) { _, _, err = svc.EstimateInfo(r.source, r.vertex) })
		case reqQuery:
			tr.timed("service.query", 0, req, func(id int) {
				for _, q := range r.queries {
					if err == nil {
						tr.timed("service.topk", id, req, func(int) { _, _, err = svc.TopKInfo(q.Source, topK) })
					}
				}
			})
		}
		if err != nil {
			return fmt.Errorf("traced %v read: %w", r.kind, err)
		}
		if sp.odEps > 0 {
			return nil
		}
	}
	var hr *http.Request
	switch r.kind {
	case reqTopK:
		hr = httptest.NewRequest(http.MethodGet, "/topk?source="+strconv.Itoa(int(r.source))+"&k="+strconv.Itoa(topK), nil)
	case reqEstimate:
		hr = httptest.NewRequest(http.MethodGet, "/estimate?source="+strconv.Itoa(int(r.source))+"&v="+strconv.Itoa(int(r.vertex)), nil)
	case reqQuery:
		body, _ := json.Marshal(httpapi.QueryRequest{Queries: r.queries})
		hr = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body)))
	}
	rec := httptest.NewRecorder()
	tr.timed("httpapi."+r.kind.String(), 0, req, func(int) { h.ServeHTTP(rec, hr) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("traced %v read: HTTP %d %s", r.kind, rec.Code, rec.Body.String())
	}
	return nil
}

// newEngine builds the push engine the service reports it runs, with the
// service's default options.
func newEngine(name string) (push.Engine, error) {
	switch name {
	case "parallel":
		return push.NewParallel(push.VariantOpt, 0), nil
	case "sequential":
		return push.NewSequential(), nil
	case "deterministic":
		return parallel.NewPushEngine(0), nil
	case "vertex-centric":
		return vc.NewPPREngine(fp.DefaultWorkers()), nil
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

func traceLayers(tr *tracer, c *traceCounts, sp spec, seed int64, dirs runDirs, in *inputs, nBatches int, engineName string) error {
	cfg := c.push
	ga := graph.FromEdges(in.initial) // graph-only replica
	gp := graph.FromEdges(in.initial) // graph under the push states
	sources := gp.TopDegreeVertices(numSources)
	states := make([]*push.State, len(sources))
	engines := make([]push.Engine, len(sources))
	slots := make([]*push.SnapshotSlot, len(sources))
	var err error
	req := tr.newReq()
	for i, s := range sources {
		if engines[i], err = newEngine(engineName); err != nil {
			return err
		}
		if states[i], err = push.NewState(gp, s, cfg); err != nil {
			return err
		}
		slots[i] = push.NewSnapshotSlotTopK(push.DefaultTopKCap)
		tr.timed("push.cold_start", 0, req, func(int) {
			engines[i].Run(states[i], []graph.VertexID{s})
			slots[i].Publish(states[i])
		})
	}
	before := sumCounters(states)
	pubBefore := sumPublish(slots)

	walPath := dirs.data("trace.wal")
	log, _, err := wal.OpenOrCreate(walPath, 0, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	defer os.Remove(walPath)
	walStart := log.Size()
	window := in.window()
	var topBuf []push.VertexScore
	for i := 0; i < nBatches; i++ {
		b := window.Slide(sp.batchSlide)
		req := tr.newReq()
		c.updates += int64(len(b))
		tr.timed("wal.append", 0, req, func(int) { _, err = log.AppendBatch(b) })
		if err == nil {
			tr.timed("wal.sync", 0, req, func(int) { err = log.Sync() })
		}
		if err != nil {
			return err
		}
		tr.timed("graph.apply", 0, req, func(int) { b.Apply(ga) })
		c.deltaPeak = max(c.deltaPeak, ga.DeltaEdges())
		// Service.doBatch order: apply each update and notify every
		// state, then push and publish each source.
		// The graph mutations inside are timed inline and subtracted, so
		// the restore time is the notify work alone.
		var touched []graph.VertexID
		var mutate time.Duration
		restore := tr.timed("push.apply_restore", 0, req, func(int) {
			touched = make([]graph.VertexID, 0, len(b))
			for _, u := range b {
				t0 := time.Now()
				n := len(stream.Batch{u}.Apply(gp))
				mutate += time.Since(t0)
				if n == 0 {
					continue
				}
				c.applied++
				touched = append(touched, u.U)
				for _, st := range states {
					if u.Op == stream.Insert {
						st.NoteInserted(u.U, u.V)
					} else {
						st.NoteDeleted(u.U, u.V)
					}
				}
			}
		})
		c.restore += restore - mutate
		if len(touched) > 0 {
			for j := range states {
				tr.timed("push.run", 0, req, func(int) { engines[j].Run(states[j], touched) })
				tr.timed("push.publish", 0, req, func(int) { slots[j].Publish(states[j]) })
				c.runs++
			}
		}
		for j := range slots {
			snap := slots[j].Acquire()
			tr.timed("push.topk_read", 0, req, func(int) { topBuf = snap.AppendTopK(topBuf[:0], topK) })
			snap.Release()
		}
		if c.compactAt[i] {
			delta := ga.DeltaEdges()
			var base *graph.CSR
			tr.timed("graph.compact", 0, req, func(int) {
				cp := ga.BeginCompaction()
				base = cp.Build()
				ga.Install(cp, base)
			})
			c.compactions++
			if delta > 0 {
				c.compactAmp = append(c.compactAmp, float64(2*base.NumEdges())/float64(delta))
			}
		}
	}
	after := sumCounters(states)
	c.pushes = after.Pushes - before.Pushes
	c.propagations = after.Propagations - before.Propagations
	c.iterations = after.Iterations - before.Iterations
	pub := sumPublish(slots)
	c.fullPub, c.deltaPub, c.rebuilds = pub.Full-pubBefore.Full, pub.Delta-pubBefore.Delta, pub.TopKRebuilds-pubBefore.TopKRebuilds
	c.walBytes = log.Size() - walStart
	if err := log.Close(); err != nil {
		return err
	}
	tr.timed("wal.replay", 0, tr.newReq(), func(int) {
		var l *wal.Log
		if l, _, err = wal.OpenOrCreate(walPath, 0, wal.Options{Sync: wal.SyncNone}); err == nil {
			err = l.Close()
		}
	})
	if err != nil {
		return err
	}

	if sp.odEps > 0 {
		// Cold pushes for the first untracked sources the longtail traffic
		// asks for, at the on-demand ε and under the push cap the service
		// was given. An unset cap leaves ColdPush unbounded while the
		// service resolves it to a default it does not export; a service
		// answer cut short by that default would no longer match the
		// replay, so it fails the pass.
		if c.truncated > 0 {
			return fmt.Errorf("%d traced on-demand answers were truncated by the service's push cap, which the replay cannot mirror", c.truncated)
		}
		g := newReadGen(sp.name, seed, 0, sources, gp.NumVertices())
		tracked := map[graph.VertexID]bool{}
		for _, s := range sources {
			tracked[s] = true
		}
		odCfg := push.Config{Alpha: cfg.Alpha, Epsilon: sp.odEps}
		for len(c.coldPushes) < traceColdPushes {
			s := g.nextRead().source
			if tracked[s] {
				continue
			}
			tracked[s] = true
			var res *push.ColdPushResult
			tr.timed("push.cold", 0, tr.newReq(), func(int) { res, err = push.ColdPush(gp.View(), s, odCfg, c.coldMaxPushes) })
			if err != nil {
				return err
			}
			c.coldPushes = append(c.coldPushes, float64(res.Pushes))
		}
	}

	// Checkpoint encode, write and load of the replayed state.
	data := &ckpt.Data{LSN: log.NextLSN(), Alpha: cfg.Alpha, Epsilon: cfg.Epsilon, CSR: gp.CompactedSnapshot()}
	for j, st := range states {
		data.Sources = append(data.Sources, ckpt.Source{
			Source: sources[j], Epoch: slots[j].Epoch(),
			Estimates: st.Estimates(), Residuals: st.Residuals(),
		})
	}
	sort.Slice(data.Sources, func(i, j int) bool { return data.Sources[i].Source < data.Sources[j].Source })
	ckptPath := dirs.data("trace.ckpt")
	defer os.Remove(ckptPath)
	req = tr.newReq()
	var enc []byte
	tr.timed("ckpt.encode", 0, req, func(int) { enc, err = ckpt.Encode(data) })
	if err != nil {
		return err
	}
	c.ckptBytes = len(enc)
	tr.timed("ckpt.write", 0, req, func(int) { err = ckpt.WriteFile(ckptPath, data) })
	if err != nil {
		return err
	}
	tr.timed("ckpt.load", 0, req, func(int) {
		var d *ckpt.Data
		if d, err = ckpt.LoadFile(ckptPath); err != nil {
			return
		}
		g := graph.FromCSR(d.CSR)
		for _, s := range d.Sources {
			if _, err = push.RestoreState(g, s.Source, push.Config{Alpha: d.Alpha, Epsilon: d.Epsilon}, s.Estimates, s.Residuals); err != nil {
				return
			}
		}
	})
	return err
}

func sumCounters(states []*push.State) dynppr.Counters {
	var total dynppr.Counters
	for _, st := range states {
		c := st.Counters.Snapshot()
		total.Merge(&c)
	}
	return total
}

func sumPublish(slots []*push.SnapshotSlot) push.PublishStats {
	var total push.PublishStats
	for _, sl := range slots {
		s := sl.Stats()
		total.Full += s.Full
		total.Delta += s.Delta
		total.TopKRebuilds += s.TopKRebuilds
	}
	return total
}

// writeSpans writes the span file: a provenance header line, then one JSON
// object per span.
func writeSpans(tr *tracer, workload string, seed int64, prov provenance) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "provenance": prov}); err != nil {
		return "", err
	}
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// layerMetrics turns spans and counts into the per-layer metrics. A layer
// the workload does not exercise reports 0.
func layerMetrics(agg map[string]spanStats, spans []span, c *traceCounts, e2e *e2eResult) map[string]metric {
	mean := func(name string) time.Duration { return agg[name].mean() }
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("edgeio.load_ms", millis(mean("edgeio.load")), "ms")
	set("graph.apply_us", us(mean("graph.apply")), "us")
	set("graph.delta_edges_peak", float64(c.deltaPeak), "count")
	set("graph.compactions", float64(c.compactions), "count")
	set("graph.compact_ms", millis(mean("graph.compact")), "ms")
	set("graph.compact_amp", meanOf(c.compactAmp), "ratio")

	set("push.restore_us", us(c.restore/time.Duration(max(agg["push.apply_restore"].n, 1))), "us")
	set("push.run_ms", millis(mean("push.run")), "ms")
	set("push.pushes_per_update", ratio(float64(c.pushes), float64(c.applied)), "count")
	set("push.propagations_per_update", ratio(float64(c.propagations), float64(c.applied)), "count")
	set("push.iterations", ratio(float64(c.iterations), float64(c.runs)), "count")
	set("push.publish_us", us(mean("push.publish")), "us")
	set("push.delta_publish_ratio", ratio(float64(c.deltaPub), float64(c.deltaPub+c.fullPub)), "ratio")
	set("push.topk_rebuilds", float64(c.rebuilds), "count")
	set("push.cold_ms", millis(mean("push.cold")), "ms")
	set("push.cold_pushes", meanOf(c.coldPushes), "count")
	set("push.topk_read_us", us(mean("push.topk_read")), "us")

	set("wal.append_us", us(mean("wal.append")), "us")
	set("wal.sync_us", us(mean("wal.sync")), "us")
	set("wal.bytes_per_update", ratio(float64(c.walBytes), float64(c.updates)), "B")
	set("wal.replay_ms", millis(mean("wal.replay")), "ms")
	set("ckpt.encode_ms", millis(mean("ckpt.encode")), "ms")
	set("ckpt.write_ms", millis(mean("ckpt.write")), "ms")
	set("ckpt.bytes", float64(c.ckptBytes), "B")
	set("ckpt.load_ms", millis(mean("ckpt.load")), "ms")

	apply, batch := mean("service.apply"), mean("service.batch")
	set("service.apply_ms", millis(apply), "ms")
	set("service.batch_ms", millis(batch), "ms")
	set("service.admit_journal_ms", millis(max(apply-batch, 0)), "ms")
	set("service.queue_depth_max", float64(c.queueMax), "count")
	set("service.topk_us", us(mean("service.topk")), "us")
	set("service.estimate_us", us(mean("service.estimate")), "us")
	set("service.cold_start_ms", millis(mean("service.cold_start")), "ms")
	set("persist.checkpoint_ms", millis(mean("persist.checkpoint")), "ms")
	set("persist.recover_ms", millis(mean("persist.recover")), "ms")

	set("ondemand.query_us.cached", us(mean("ondemand.query.cached")), "us")
	set("ondemand.query_us.cold", us(mean("ondemand.query.cold")), "us")
	set("ondemand.query_us.tracked", us(mean("ondemand.query.tracked")), "us")
	hits := c.odAfter.CacheHits - c.odBefore.CacheHits
	misses := c.odAfter.CacheMisses - c.odBefore.CacheMisses
	set("ondemand.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	set("ondemand.approx_share", ratio(float64(c.approx), float64(c.answers)), "ratio")
	set("ondemand.cold_pushes", float64(c.odAfter.ColdPushes-c.odBefore.ColdPushes), "count")
	set("ondemand.coalesced", float64(c.odAfter.Coalesced-c.odBefore.Coalesced), "count")
	set("ondemand.promotions", float64(c.odAfter.Promotions-c.odBefore.Promotions), "count")
	set("ondemand.evictions", float64(c.odAfter.Evictions-c.odBefore.Evictions), "count")

	set("httpapi.topk_us", us(mean("httpapi.topk")), "us")
	set("httpapi.estimate_us", us(mean("httpapi.estimate")), "us")
	set("httpapi.query_us", us(mean("httpapi.query")), "us")
	set("httpapi.edges_ms", millis(mean("httpapi.edges")), "ms")
	set("httpapi.self_us", us(handlerSelf(agg)), "us")

	set("proc.cpu_s", e2e.childCPU.Seconds(), "s")
	set("proc.cpu_ms_per_op", ratio(millis(e2e.childCPU), float64(e2e.completed.Load())), "ms")
	set("gen.lag_p99_ms", millis(percentile(e2e.lag.snapshot(), 99)), "ms")
	set("gen.cpu_s", e2e.genCPU.Seconds(), "s")

	set("trace.write_coverage", ratio(float64(apply), float64(c.e2eWriteMean)), "ratio")
	set("trace.read_coverage", ratio(float64(serviceReadMean(spans)), float64(c.e2eReadMean)), "ratio")
	return m
}

// readPairs names each handler read span with the service span timing the
// same request kind.
var readPairs = [][2]string{
	{"httpapi.topk", "service.topk"},
	{"httpapi.estimate", "service.estimate"},
	{"httpapi.query", "service.query"},
}

// handlerSelf is the mean handler read span minus the mean service span of
// the same request kind, weighted by the handler's request mix: the HTTP
// layer's own cost per read (routing, JSON, metrics).
func handlerSelf(agg map[string]spanStats) time.Duration {
	var total time.Duration
	n := 0
	for _, p := range readPairs {
		h, s := agg[p[0]], agg[p[1]]
		if p[1] == "service.topk" && s.n == 0 {
			// With on-demand serving on, top-k reads go through the
			// unified query path instead.
			for _, name := range []string{"ondemand.query.cached", "ondemand.query.cold", "ondemand.query.tracked"} {
				s.n += agg[name].n
				s.total += agg[name].total
			}
		}
		if h.n == 0 || s.n == 0 {
			continue
		}
		total += time.Duration(h.n) * (h.mean() - s.mean())
		n += h.n
	}
	if n == 0 {
		return 0
	}
	return max(total/time.Duration(n), 0)
}

// serviceReadMean is the mean top-level service span per read over the
// workload's read mix: the part of a read the traced spans account for.
func serviceReadMean(spans []span) time.Duration {
	var total time.Duration
	n := 0
	for _, sp := range spans {
		if sp.Parent != 0 {
			continue
		}
		switch sp.Name {
		case "service.topk", "service.estimate", "service.query",
			"ondemand.query.cached", "ondemand.query.cold", "ondemand.query.tracked":
			total += sp.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// printTrace prints every span's mean duration and self time, the per-layer
// metrics and the coverage line.
func printTrace(w io.Writer, agg map[string]spanStats, m map[string]metric, path string) {
	names := make([]string, 0, len(agg))
	for k := range agg {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "traced pass: %s\n", path)
	fmt.Fprintf(w, "  %-26s %7s %14s %14s\n", "span", "count", "mean", "mean self")
	for _, k := range names {
		s := agg[k]
		fmt.Fprintf(w, "  %-26s %7d %14v %14v\n", k, s.n, s.mean(), s.self/time.Duration(s.n))
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(w, "coverage: traced service spans account for %.1f%% of the end-to-end write latency and %.1f%% of the read latency\n",
		100*m["trace.write_coverage"].Value, 100*m["trace.read_coverage"].Value)
}
