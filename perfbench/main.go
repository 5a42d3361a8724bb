// Command perfbench is the serving benchmark of dppr-httpd. It builds the
// daemon from the checkout it runs in, spawns it as a child process with
// only deployment and workload flags, drives it over at most two HTTP
// connections through httpapi.Client, checks every answer, and prints the
// end-to-end metrics. With -trace 1 it additionally replays the same inputs
// in-process through each layer's public functions and prints per-layer
// metrics instead. See README.md for the metrics, workloads and span file.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

// maxGenLag is the generator lateness (p99) past which a run is invalid: the
// generator, not the daemon, would then be setting the schedule.
const maxGenLag = 50 * time.Millisecond

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: ingest, longtail or hotread")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "timed-phase length in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced in-process pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds ≥ 1 and --trace 0|1\n", workloadNames)
		return 2
	}
	if err := bench(workloadSpec(*workload), *seed, *seconds, *trace == 1, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(sp spec, seed int64, seconds int, traced bool, stdout, stderr io.Writer) error {
	if _, err := os.Stat(filepath.Join("cmd", "dppr-httpd", "main.go")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	runRoot, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	// Every exit path kills the children before their directory goes away.
	defer os.RemoveAll(runRoot)
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer func() {
		signal.Stop(sig)
		close(sig) // ends the watcher below
	}()
	go func() {
		if _, ok := <-sig; ok {
			killAll()
			os.RemoveAll(runRoot)
			os.Exit(1)
		}
	}()

	dirs := runDirs{
		root:  runRoot,
		bin:   filepath.Join(runRoot, "dppr-httpd"),
		edges: filepath.Join(runRoot, "edges.txt"),
	}
	build := exec.Command("go", "build", "-o", dirs.bin, "./cmd/dppr-httpd")
	build.Stdout, build.Stderr = stderr, stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building dppr-httpd: %w", err)
	}
	in, err := genInputs(seed)
	if err != nil {
		return err
	}
	if err := in.writeEdgeFile(dirs.edges); err != nil {
		return err
	}

	res, err := runE2E(sp, seed, seconds, dirs, in)
	if err != nil {
		return err
	}
	lagP99 := percentile(res.lag.snapshot(), 99)
	if lagP99 > maxGenLag {
		res.all.fail(fmt.Sprintf("generator lag p99 %v exceeds %v: the run is invalid", lagP99, maxGenLag))
	}
	prov, _ := json.Marshal(res.prov)
	fmt.Fprintf(stdout, "provenance %s\n", prov)

	out := result{
		Correct:   res.all.failed == 0,
		Attempted: res.all.attempted,
		Failed:    res.all.failed,
	}
	e2e := endToEnd(res)
	report(stdout, sp.name, res, e2e)
	out.Metrics = map[string]metric{}
	for _, name := range gatedMetrics {
		out.Metrics[name] = e2e[name]
	}
	if traced {
		layers, err := runTrace(sp, seed, dirs, in, res, stdout)
		if err != nil {
			return err
		}
		out.Metrics = layers
	}
	if out.Attempted < 1 {
		return errors.New("no request was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// gatedMetrics are the end-to-end metrics the result line carries and
// BENCHMARK.json bounds. The report prints the others as well: their
// run-to-run spread on the two-vCPU host the bounds were set on is too wide
// for a bound of at most 25% (see README.md, "Steadiness").
var gatedMetrics = []string{"setup_s", "updates_per_s", "reads_per_s", "peak_rss_mb", "approx_eps"}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(r *e2eResult) map[string]metric {
	secs, writeSecs := r.phase.Seconds(), r.writePhase.Seconds()
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	writes, reads := r.writes.snapshot(), r.reads.snapshot()
	m := map[string]metric{
		"setup_s":       {median(setup), "s"},
		"updates_per_s": {float64(r.applied) / writeSecs, "1/s"},
		"write_p50_ms":  {millis(percentile(writes, 50)), "ms"},
		"write_p90_ms":  {millis(percentile(writes, 90)), "ms"},
		"reads_per_s":   {float64(len(reads)) / secs, "1/s"},
		"read_p50_ms":   {millis(percentile(reads, 50)), "ms"},
		"read_p90_ms":   {millis(percentile(reads, 90)), "ms"},
		"read_p99_ms":   {millis(percentile(reads, 99)), "ms"},
		"recovery_s":    {r.recovery.Seconds(), "s"},
		"peak_rss_mb":   {r.peakRSS, "MiB"},
		"approx_eps":    {0, "abs_error"},
	}
	if r.answers > 0 {
		m["approx_eps"] = metric{r.epsSum / float64(r.answers), "abs_error"}
	}
	return m
}

// report prints the human-readable summary: every metric with its unit, the
// sample counts behind each percentile and the highest percentile with ten
// samples beyond it.
func report(w io.Writer, name string, r *e2eResult, m map[string]metric) {
	fmt.Fprintf(w, "workload %s: timed phase %.3fs; write figures over %.3fs, %d batches acknowledged\n",
		name, r.phase.Seconds(), r.writePhase.Seconds(), r.batches)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		note := ""
		if !slices.Contains(gatedMetrics, k) {
			note = " (report only)"
		}
		fmt.Fprintf(w, "  %-14s %14.6g %s%s\n", k, m[k].Value, m[k].Unit, note)
	}
	fmt.Fprintf(w, "  %-14s %14.6g ratio (%d failed / %d attempted)\n", "error_rate", r.all.errorRate(), r.all.failed, r.all.attempted)
	for _, c := range []struct {
		what string
		s    []time.Duration
	}{{"write", r.writes.snapshot()}, {"read", r.reads.snapshot()}} {
		if p := highestTail(len(c.s)); p > 0 {
			fmt.Fprintf(w, "  %s latency: n=%d, highest percentile with ≥10 samples beyond: p%g = %.3f ms\n",
				c.what, len(c.s), p, millis(percentile(c.s, p)))
		} else {
			fmt.Fprintf(w, "  %s latency: n=%d, too few samples for a tail percentile\n", c.what, len(c.s))
		}
	}
	fmt.Fprintf(w, "  setup runs %v, recovery %v\n", r.setup, r.recovery)
	fmt.Fprintf(w, "  child cpu %.3fs, generator cpu %.3fs, generator lag p99 %.3f ms\n",
		r.childCPU.Seconds(), r.genCPU.Seconds(), millis(percentile(r.lag.snapshot(), 99)))
	for reason, n := range r.all.reasons {
		fmt.Fprintf(w, "  FAILED %d× %s\n", n, reason)
	}
}
