package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dynppr/internal/httpapi"
)

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := highestTail(tc.n); p > 0 {
			rank := int(p / 100 * float64(tc.n))
			if tc.n-rank < 10 {
				t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, p, tc.n-rank)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for p, want := range map[float64]time.Duration{50: 50 * time.Millisecond, 90: 90 * time.Millisecond, 99: 99 * time.Millisecond, 100: 100 * time.Millisecond} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
}

// fakeClock advances only when told to: sleeping jumps to the wake time
// plus a fixed oversleep, and each request advances it by its service time.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.oversleep)
	}
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0)}
	ol := openLoop{clk: clk, start: clk.now, interval: 10 * ms, end: clk.now.Add(50 * ms)}
	service := []time.Duration{35 * ms, ms, ms, ms, ms}
	var lat, lag []time.Duration
	n := ol.run(func(i int) bool {
		clk.now = clk.now.Add(service[i])
		return true
	}, func(d time.Duration) { lat = append(lat, d) }, func(d time.Duration) { lag = append(lag, d) })
	if n != 5 {
		t.Fatalf("sent %d requests, want 5", n)
	}
	// Request 0 stalls 35ms; requests 1-3 were due during the stall and
	// are charged the wait from their due time; request 4 is on time.
	want := []time.Duration{35 * ms, 26 * ms, 17 * ms, 8 * ms, ms}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("request %d latency %v, want %v", i, lat[i], want[i])
		}
		if lag[i] != 0 {
			t.Errorf("request %d generator lag %v, want 0: it sent as soon as it could", i, lag[i])
		}
	}
}

func TestOpenLoopReportsGeneratorLag(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0), oversleep: 3 * ms}
	ol := openLoop{clk: clk, start: clk.now.Add(10 * ms), interval: 10 * ms, end: clk.now.Add(40 * ms)}
	var lat, lag []time.Duration
	ol.run(func(int) bool { clk.now = clk.now.Add(ms); return false },
		func(d time.Duration) { lat = append(lat, d) }, func(d time.Duration) { lag = append(lag, d) })
	if len(lag) != 3 {
		t.Fatalf("%d requests, want 3", len(lag))
	}
	for i := range lag {
		if lag[i] != 3*ms {
			t.Errorf("request %d lag %v, want the 3ms oversleep", i, lag[i])
		}
	}
	if len(lat) != 0 {
		t.Errorf("failed requests recorded latencies %v, want none", lat)
	}
}

func TestErrorRateDenominators(t *testing.T) {
	var reads, writes, all tally
	for i := 0; i < 7; i++ {
		reads.ok()
	}
	reads.fail("topk: transport error")
	writes.ok()
	writes.fail("edges: HTTP 500")
	if got := reads.errorRate(); got != 1.0/8 {
		t.Errorf("read error rate %g, want 1/8", got)
	}
	all.add(&reads)
	all.add(&writes)
	if all.attempted != 10 || all.failed != 2 || all.errorRate() != 0.2 {
		t.Errorf("all classes: %d/%d (rate %g), want 2 failed of 10 attempted",
			all.failed, all.attempted, all.errorRate())
	}
	var empty tally
	if empty.errorRate() != 0 {
		t.Errorf("error rate with nothing attempted = %g", empty.errorRate())
	}
}

// TestContractViolationCountsOnce checks that a 200 carrying a
// non-converged snapshot is one attempted and one failed request, and that a
// regressing epoch fails only while the source stays tracked.
func TestContractViolationCountsOnce(t *testing.T) {
	var answers []httpapi.TopKResult
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		res := answers[0]
		answers = answers[1:]
		_ = json.NewEncoder(w).Encode(res)
	}))
	defer srv.Close()
	tracked := func(epoch uint64, converged bool) httpapi.TopKResult {
		return httpapi.TopKResult{K: topK, Snapshot: httpapi.SnapshotMeta{
			Source: 5, Epoch: epoch, Epsilon: 1e-6, MaxResidual: 1e-7, Converged: converged,
		}}
	}
	approx := httpapi.TopKResult{K: topK, Approx: true, Epsilon: 1e-5}
	answers = []httpapi.TopKResult{
		tracked(3, false), // non-converged: violation
		tracked(4, true),
		tracked(2, true), // epoch went backwards: violation
		approx,           // source evicted: its epoch sequence ends
		tracked(1, true), // re-promoted: fine
	}
	c := newConn(srv.URL, 1e-4, &answerStats{})
	defer c.close()
	var tl tally
	var ok []bool
	for range 5 {
		ok = append(ok, c.read(readReq{kind: reqTopK, source: 5}, &tl))
	}
	want := []bool{false, true, false, true, true}
	for i := range want {
		if ok[i] != want[i] {
			t.Errorf("read %d ok=%v, want %v (reasons %v)", i, ok[i], want[i], tl.reasons)
		}
	}
	if tl.attempted != 5 || tl.failed != 2 {
		t.Errorf("tally %d failed / %d attempted, want 2 / 5", tl.failed, tl.attempted)
	}
}

func TestCheckTopK(t *testing.T) {
	exact := make([]float64, 20)
	for i := range exact {
		exact[i] = float64(20-i) * 1e-3
	}
	top := func(scores ...float64) []httpapi.VertexScore {
		out := make([]httpapi.VertexScore, len(scores))
		for i, s := range scores {
			out[i] = httpapi.VertexScore{Vertex: int32(i), Score: s}
		}
		return out
	}
	good := make([]float64, topK)
	for i := range good {
		good[i] = exact[i] + 5e-7
	}
	if v := checkTopK(exact, top(good...), 1e-6); v != "" {
		t.Errorf("accurate ranking rejected: %s", v)
	}
	bad := append([]float64(nil), good...)
	bad[3] += 1e-5
	if v := checkTopK(exact, top(bad...), 1e-6); v == "" {
		t.Error("score off by 1e-5 accepted at ε 1e-6")
	}
	// Ranking vertices 1..10: vertex 0 beats the last score by far.
	shifted := make([]httpapi.VertexScore, topK)
	for i := range shifted {
		shifted[i] = httpapi.VertexScore{Vertex: int32(i + 1), Score: exact[i+1]}
	}
	if v := checkTopK(exact, shifted, 1e-6); v == "" {
		t.Error("ranking missing the best vertex accepted")
	}
}
