package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynppr/internal/graph"
	"dynppr/internal/httpapi"
	"dynppr/internal/stream"
)

// spec describes one workload: the daemon flags it adds and its traffic.
// traffic.run and readGen lay out each workload's request streams by name;
// the fields are the parameters those streams and the traced pass share.
type spec struct {
	name string
	// batchSlide is k of SlidingWindow.Slide(k): k arrivals plus k expiries.
	batchSlide int
	// timedWrites reports whether the timed phase writes. Without it
	// (hotread) a second timed phase of closed-loop writes follows the
	// first and gives the write figures.
	timedWrites bool
	// ckptEvery sends POST /checkpoint after every ckptEvery-th batch.
	ckptEvery int
	// odEps is the on-demand ε answers may advertise (0: on-demand off).
	// promoteAfter and maxAutoSources are the on-demand promotion flags.
	odEps                        float64
	promoteAfter, maxAutoSources int
	// warmup is untimed traffic before the timed phase.
	warmup time.Duration
}

const (
	// setupRepeats boots the daemon several times per run and reports the
	// median, because one boot is a single noisy sample.
	setupRepeats   = 3
	suffixBatches  = 10 // WAL suffix between the last checkpoint and SIGKILL
	checkTailRanks = 4  // long-tail sources the oracle checks on longtail

	ingestReadEvery    = 10 * time.Millisecond  // ingest's open-loop tracked reads
	longtailWriteEvery = 200 * time.Millisecond // longtail's open-loop batches
)

var workloadNames = []string{"ingest", "longtail", "hotread"}

func workloadSpec(name string) spec {
	switch name {
	case "ingest":
		return spec{name: name, batchSlide: 100, timedWrites: true, ckptEvery: 20}
	case "longtail":
		return spec{
			name: name, batchSlide: 10, timedWrites: true,
			odEps: 1e-4, promoteAfter: 16, maxAutoSources: 8,
			warmup: 5 * time.Second,
		}
	case "hotread":
		return spec{name: name, batchSlide: 100}
	}
	return spec{}
}

// e2eResult is what one untraced end-to-end run measured.
type e2eResult struct {
	phaseStats
	setup    []time.Duration
	recovery time.Duration
	phase    time.Duration
	// writePhase is the span the write figures cover, applied and batches
	// what was acknowledged in it: the timed phase, or the write phase of a
	// workload without timed writes.
	writePhase time.Duration
	applied    int64
	batches    int
	answers    int
	epsSum     float64
	peakRSS    float64
	childCPU   time.Duration
	genCPU     time.Duration
	all        tally
	prov       provenance
}

// phaseStats is what one pass of traffic measured.
type phaseStats struct {
	writes, reads latencies
	lag           latencies    // generator lateness of open-loop requests
	completed     atomic.Int64 // requests completed
}

// answerStats accumulates the advertised error bound of every read answer.
type answerStats struct {
	mu       sync.Mutex
	n        int
	epsSum   float64
	sawExact bool
	exact    graph.VertexID
}

// noteExact remembers the first source answered with ε = 0.
func (a *answerStats) noteExact(source graph.VertexID) {
	a.mu.Lock()
	if !a.sawExact {
		a.sawExact, a.exact = true, source
	}
	a.mu.Unlock()
}

// reset forgets the bounds noted so far (those of the warm-up).
func (a *answerStats) reset() {
	a.mu.Lock()
	a.n, a.epsSum = 0, 0
	a.mu.Unlock()
}

func (a *answerStats) note(eps float64) {
	a.mu.Lock()
	a.n++
	a.epsSum += eps
	a.mu.Unlock()
}

// conn is one load-generator connection with the per-connection contract state.
type conn struct {
	c      *httpapi.Client
	tr     *http.Transport
	epochs map[graph.VertexID]uint64
	odEps  float64
	ans    *answerStats
}

func newConn(url string, odEps float64, ans *answerStats) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{
		c:      httpapi.NewClient(url, &http.Client{Transport: tr, Timeout: 60 * time.Second}),
		tr:     tr,
		epochs: map[graph.VertexID]uint64{},
		odEps:  odEps,
		ans:    ans,
	}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// errClass names a request failure for the report.
func errClass(what string, err error) string {
	var ae *httpapi.APIError
	if errors.As(err, &ae) {
		return fmt.Sprintf("%s: HTTP %d", what, ae.StatusCode)
	}
	return what + ": transport error"
}

// checkAnswer enforces the read contract on one answer and returns the
// violation, if any: a tracked answer must come from a converged snapshot of
// the requested source whose epoch never goes backwards on this connection;
// an approximate answer must advertise 0 ≤ ε ≤ the on-demand ε.
func (c *conn) checkAnswer(source graph.VertexID, meta httpapi.SnapshotMeta, approx bool, eps float64) string {
	if approx {
		if c.odEps == 0 {
			return "approximate answer from a daemon without on-demand serving"
		}
		// ε = 0 is the bound of a push that drained every residual (a
		// source without in-edges): the answer claims to be exact, and the
		// oracle holds one such source to that claim.
		if !(eps >= 0 && eps <= c.odEps) {
			return fmt.Sprintf("approximate answer advertises ε=%g outside [0, %g]", eps, c.odEps)
		}
		if eps == 0 {
			c.ans.noteExact(source)
		}
		// An untracked answer ends the source's tracked lifetime on this
		// connection: a later promotion starts a new snapshot sequence at
		// epoch 1.
		delete(c.epochs, source)
		c.ans.note(eps)
		return ""
	}
	if meta.Source != source {
		return fmt.Sprintf("answer for source %d carries snapshot of %d", source, meta.Source)
	}
	if !meta.Converged || meta.MaxResidual > meta.Epsilon {
		return "non-converged snapshot"
	}
	if prev := c.epochs[source]; meta.Epoch < prev {
		return fmt.Sprintf("epoch went backwards for source %d: %d after %d", source, meta.Epoch, prev)
	}
	c.epochs[source] = meta.Epoch
	c.ans.note(meta.Epsilon)
	return ""
}

// read sends one read, checks it and tallies it; it reports success.
func (c *conn) read(r readReq, t *tally) bool {
	var violation string
	switch r.kind {
	case reqTopK:
		res, err := c.c.TopK(r.source, topK)
		if err != nil {
			t.fail(errClass("topk", err))
			return false
		}
		violation = c.checkAnswer(r.source, res.Snapshot, res.Approx, res.Epsilon)
		if violation == "" && len(res.Results) > topK {
			violation = fmt.Sprintf("topk returned %d > %d results", len(res.Results), topK)
		}
	case reqEstimate:
		res, err := c.c.Estimate(r.source, r.vertex)
		if err != nil {
			t.fail(errClass("estimate", err))
			return false
		}
		violation = c.checkAnswer(r.source, res.Snapshot, res.Approx, res.Epsilon)
	case reqQuery:
		results, err := c.c.Query(r.queries)
		if err != nil {
			t.fail(errClass("query", err))
			return false
		}
		if len(results) != len(r.queries) {
			violation = fmt.Sprintf("query returned %d results for %d queries", len(results), len(r.queries))
		}
		for i := 0; violation == "" && i < len(results); i++ {
			switch res := results[i]; {
			case res.Error != "":
				violation = fmt.Sprintf("query result %d: status %d: %s", i, res.Status, res.Error)
			case res.TopK == nil:
				violation = fmt.Sprintf("query result %d has no ranking", i)
			default:
				violation = c.checkAnswer(r.queries[i].Source, res.TopK.Snapshot, res.TopK.Approx, res.TopK.Epsilon)
			}
		}
	}
	if violation != "" {
		t.fail(violation)
		return false
	}
	t.ok()
	return true
}

// writer sends update batches and mirrors every acknowledged one into the
// generator's replica of the graph, checking that the daemon applied exactly
// the updates the replica did.
type writer struct {
	c       *conn
	window  *stream.SlidingWindow
	slide   int
	replica *graph.Graph
	applied int64
	batches int
	// lost is set once a batch failed: its effect on the daemon is then
	// unknown and the replica can no longer be trusted.
	lost bool
}

func (w *writer) write(t *tally) bool {
	b := w.window.Slide(w.slide)
	if len(b) == 0 {
		t.fail("update stream exhausted")
		return false
	}
	res, err := w.c.c.ApplyEdges(httpapi.FromBatch(b))
	if err != nil {
		w.lost = true
		t.fail(errClass("edges", err))
		return false
	}
	want := len(b.Apply(w.replica))
	w.batches++
	if res.Applied != want || res.Applied+res.Skipped != len(b) {
		t.fail(fmt.Sprintf("edges: daemon applied %d/%d updates, replica %d", res.Applied, len(b), want))
		return false
	}
	w.applied += int64(res.Applied)
	t.ok()
	return true
}

func (w *writer) checkpoint(t *tally) bool {
	if _, err := w.c.c.Checkpoint(); err != nil {
		t.fail(errClass("checkpoint", err))
		return false
	}
	t.ok()
	return true
}

// runDirs are the per-run paths under the run directory.
type runDirs struct{ root, bin, edges string }

func (r runDirs) data(name string) string { return filepath.Join(r.root, name) }

func daemonArgs(sp spec, dirs runDirs, dataDir string) []string {
	args := []string{
		"-input", dirs.edges, "-data-dir", dataDir,
		"-sources", strconv.Itoa(numSources), "-fsync", "always",
	}
	if sp.odEps > 0 {
		// -ondemand-eps stays at its default; odEps is what that default
		// is, and the contract check holds answers to it.
		args = append(args, "-ondemand",
			"-promote-after", strconv.Itoa(sp.promoteAfter),
			"-max-auto-sources", strconv.Itoa(sp.maxAutoSources))
	}
	return args
}

// bootRepeated boots the daemon `repeats` times, the i-th on directory
// dirFor(i), kills all but the last and returns it with every boot time.
func bootRepeated(sp spec, dirs runDirs, repeats int, dirFor func(i int) (string, error)) (*daemon, []time.Duration, error) {
	var times []time.Duration
	for i := 0; i < repeats; i++ {
		dir, err := dirFor(i)
		if err != nil {
			return nil, nil, err
		}
		d, err := startDaemon(dirs.bin, daemonArgs(sp, dirs, dir))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.ready)
		if i == repeats-1 {
			return d, times, nil
		}
		d.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, errors.New("no boots")
}

// runE2E runs one untraced end-to-end pass of workload sp against daemons
// spawned from dirs.bin and checks every answer.
func runE2E(sp spec, seed int64, seconds int, dirs runDirs, in *inputs) (*e2eResult, error) {
	res := &e2eResult{}
	replica := graph.FromEdges(in.initial)
	n := replica.NumVertices()
	mainDir := dirs.data("data")

	d, setup, err := bootRepeated(sp, dirs, setupRepeats, func(i int) (string, error) {
		if i == setupRepeats-1 {
			return mainDir, nil
		}
		return dirs.data(fmt.Sprintf("data-setup%d", i)), nil
	})
	if err != nil {
		return nil, err
	}
	res.setup = setup
	defer d.kill() // kill is idempotent; the recovery step kills it first

	ans := &answerStats{}
	c0, c1 := newConn(d.url, sp.odEps, ans), newConn(d.url, sp.odEps, ans)
	defer c0.close()
	defer c1.close()
	tracked, err := c0.c.Sources()
	if err != nil {
		return nil, fmt.Errorf("GET /sources: %w", err)
	}
	st, err := c0.c.Stats()
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	res.prov = newProvenance(".", mainDir)
	res.prov.DaemonPool = st.Service.PoolWorkers
	res.prov.DaemonMaxProcs = daemonMaxProcs(d.pid())
	res.prov.SetupRepeats = setupRepeats
	if err := c1.c.Health(); err != nil { // open the second connection outside the timed phase
		return nil, err
	}

	w := &writer{c: c0, window: in.window(), slide: sp.batchSlide, replica: replica}
	tf := &traffic{sp: sp, w: w, conns: [2]*conn{c0, c1}, gens: [2]*readGen{
		newReadGen(sp.name, seed, 0, tracked, n), newReadGen(sp.name, seed, 1, tracked, n),
	}}
	if sp.warmup > 0 {
		// Untimed: hot sources get promoted and the result cache fills
		// before the clock starts, as they would on a long-running server.
		warm := time.Now()
		tf.run(warm, warm.Add(sp.warmup), &phaseStats{})
		ans.reset()
	}

	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	applied0, batches0 := w.applied, w.batches
	start := time.Now().Add(20 * time.Millisecond)
	res.phase = tf.run(start, start.Add(time.Duration(seconds)*time.Second), &res.phaseStats).Sub(start)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	res.childCPU = cpu1 - cpu0
	res.genCPU = selfCPU() - self0
	res.answers, res.epsSum = ans.n, ans.epsSum
	w.c = c0
	if !sp.timedWrites {
		// A second timed phase of the same length, closed-loop writes
		// only: the read phase stays free of push work, and the write
		// figures rest on as much writing as on the other workloads.
		applied0, batches0 = w.applied, w.batches
		wstart := time.Now()
		for wend := wstart.Add(time.Duration(seconds) * time.Second); time.Now().Before(wend); {
			t0 := time.Now()
			if w.write(&tf.writes) {
				res.writes.add(time.Since(t0))
			}
		}
		res.writePhase = time.Since(wstart)
	} else {
		res.writePhase = res.phase
	}
	res.applied, res.batches = w.applied-applied0, w.batches-batches0

	// WAL suffix for recovery: checkpoint, then a fixed number of batches
	// the restarted daemon must replay.
	var post tally
	w.checkpoint(&post)
	for i := 0; i < suffixBatches; i++ {
		w.write(&post)
	}
	if res.peakRSS, err = vmHWMMiB(d.pid()); err != nil {
		return nil, err
	}
	d.kill()

	// Recovery: SIGKILL → restart on the same data dir → first 200.
	rd, err := startDaemon(dirs.bin, daemonArgs(sp, dirs, mainDir))
	if err != nil {
		return nil, err
	}
	res.recovery = rd.ready
	defer rd.kill()

	var check tally
	if w.lost {
		check.fail("a batch failed, so the replica cannot vouch for the final graph")
	} else {
		vc := newConn(rd.url, sp.odEps, &answerStats{})
		defer vc.close()
		var tail []graph.VertexID
		if sp.name == "longtail" {
			tail = longtailSample(seed, n, tracked)
			if ans.sawExact && !slices.Contains(tail, ans.exact) {
				tail = append(tail, ans.exact)
			}
		}
		if err := verify(vc, replica, tail, seed, &check); err != nil {
			return nil, err
		}
	}
	for _, t := range []*tally{&tf.reads, &tf.writes, &post, &check} {
		res.all.add(t)
	}
	return res, nil
}

// traffic is a workload's request streams on its two connections. The
// tallies span every pass, warm-up included: each request is checked.
type traffic struct {
	sp            spec
	w             *writer
	conns         [2]*conn
	gens          [2]*readGen
	reads, writes tally
}

// run sends the workload's traffic from start until end into ps and returns
// when the last request has completed.
func (tf *traffic) run(start, end time.Time, ps *phaseStats) time.Time {
	var wg sync.WaitGroup
	var finished [2]time.Time
	loop := func(i int, f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			realClock{}.SleepUntil(start)
			f()
			finished[i] = time.Now()
		}()
	}
	closedRead := func(i int) {
		for time.Now().Before(end) {
			t0 := time.Now()
			if tf.conns[i].read(tf.gens[i].nextRead(), &tf.reads) {
				ps.reads.add(time.Since(t0))
			}
			ps.completed.Add(1)
		}
	}
	switch tf.sp.name {
	case "ingest":
		// conn 0: closed-loop writer with a checkpoint after every
		// ckptEvery-th batch; conn 1: open-loop tracked reads.
		loop(0, func() {
			for time.Now().Before(end) {
				t0 := time.Now()
				if tf.w.write(&tf.writes) {
					ps.writes.add(time.Since(t0))
				}
				ps.completed.Add(1)
				if tf.w.batches%tf.sp.ckptEvery == 0 {
					tf.w.checkpoint(&tf.writes)
				}
			}
		})
		loop(1, func() {
			ol := openLoop{clk: realClock{}, start: start, interval: ingestReadEvery, end: end}
			ol.run(func(int) bool {
				defer ps.completed.Add(1)
				return tf.conns[1].read(tf.gens[1].nextRead(), &tf.reads)
			}, ps.reads.add, ps.lag.add)
		})
	case "longtail":
		// conn 0: closed-loop Zipf reads; conn 1: open-loop writes.
		tf.w.c = tf.conns[1]
		loop(0, func() { closedRead(0) })
		loop(1, func() {
			ol := openLoop{clk: realClock{}, start: start, interval: longtailWriteEvery, end: end}
			ol.run(func(int) bool {
				defer ps.completed.Add(1)
				return tf.w.write(&tf.writes)
			}, ps.writes.add, ps.lag.add)
		})
	case "hotread":
		// Two closed-loop readers and no writes.
		loop(0, func() { closedRead(0) })
		loop(1, func() { closedRead(1) })
	}
	wg.Wait()
	return maxTime(finished[0], finished[1])
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// daemonMaxProcs is the GOMAXPROCS the child runs with: the environment's
// GOMAXPROCS when set, else its CPU affinity count.
func daemonMaxProcs(pid int) int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	n, err := cpusAllowed(pid)
	if err != nil {
		return 0
	}
	return n
}
