package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples, which it sorts in place. It returns 0 for no samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := nearestRank(p, len(samples))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// nearestRank is ⌈p/100·n⌉, robust to the rounding of p/100·n (0.999·10000
// is 9990.000000000002 in float64).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailLadder lists the percentiles a tail report may use, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestTail returns the highest percentile of tailLadder that has at least
// ten of n samples strictly beyond its nearest rank, or 0 when even the
// median lacks them.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// tally counts attempted and failed requests of one class. A request is
// attempted once; it fails on a transport error, a non-2xx status or a
// contract or oracle violation, and a violated success still counts once.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(reason string) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
	t.mu.Unlock()
}

// add folds other into t.
func (t *tally) add(other *tally) {
	other.mu.Lock()
	a, f := other.attempted, other.failed
	reasons := make(map[string]int, len(other.reasons))
	for k, v := range other.reasons {
		reasons[k] = v
	}
	other.mu.Unlock()
	t.mu.Lock()
	t.attempted += a
	t.failed += f
	if len(reasons) > 0 && t.reasons == nil {
		t.reasons = map[string]int{}
	}
	for k, v := range reasons {
		t.reasons[k] += v
	}
	t.mu.Unlock()
}

// errorRate is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) errorRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// latencies collects the latencies of one request class's successful
// requests; a failure is counted in the class's tally only.
type latencies struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

func (l *latencies) snapshot() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.samples...)
}

func (l *latencies) mean() time.Duration {
	s := l.snapshot()
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// clock is the time source of the open-loop scheduler; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop issues request i at start + i·interval for every due time before
// end, one at a time on one connection. A request is timed from its due
// time, not from when it was sent, so a stalled response charges its delay
// to every request queued behind it. lag records the generator's own
// lateness: how long after it could have sent (due, or the previous
// response, whichever is later) it actually did.
type openLoop struct {
	clk      clock
	start    time.Time
	interval time.Duration
	end      time.Time
}

// run calls send for each due request and reports the latency from due time
// of each that succeeded (send returned true) and the generator lag of all.
func (o openLoop) run(send func(i int) bool, latency func(time.Duration), lag func(time.Duration)) int {
	free := o.start
	i := 0
	for ; ; i++ {
		due := o.start.Add(time.Duration(i) * o.interval)
		if !due.Before(o.end) {
			break
		}
		o.clk.SleepUntil(due)
		sent := o.clk.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		lag(sent.Sub(ready))
		ok := send(i)
		free = o.clk.Now()
		if ok {
			latency(free.Sub(due))
		}
	}
	return i
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
