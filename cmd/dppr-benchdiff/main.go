// Command dppr-benchdiff is the CI benchmark-regression gate: it parses
// `go test -json` benchmark event streams (plain `go test -bench` text also
// works) and enforces performance contracts on them.
//
// Regression mode compares two streams benchmark-by-benchmark and fails when
// the geometric mean of the new/old ns/op ratios exceeds the threshold:
//
//	dppr-benchdiff -old BENCH_PR3.json -new bench_head.json -threshold 0.15
//
// With -normalize, each ratio is divided by the stream geomean and the worst
// normalized benchmark is gated instead — uniform machine-speed differences
// cancel, so a baseline captured on different hardware still catches code
// changes that regress one benchmark relative to the rest:
//
//	dppr-benchdiff -normalize -old BENCH_PR3.json -new bench_head.json -threshold 0.15
//
// Speedup mode asserts a ratio between two benchmarks of one stream — the
// check the CI uses to keep the deterministic parallel engine's batch-apply
// speedup over the sequential engine from eroding:
//
//	dppr-benchdiff -in bench_head.json \
//	  -slow 'BenchmarkBatchApplyEngines/engine=sequential-4' \
//	  -fast 'BenchmarkBatchApplyEngines/engine=deterministic-4' \
//	  -min 1.5
//
// A/B mode runs two compiled test binaries (`go test -c`) of the same
// package on the same machine — typically the merge-base and the change —
// for five interleaved rounds, alternating which side goes first, and
// fails when any benchmark's median head/base ns/op ratio exceeds
// 1+threshold. The ratio is absolute, never normalized: both sides share the
// machine and the run window, so a uniform slowdown is a real regression.
// Everything after -- is passed verbatim to both binaries:
//
//	dppr-benchdiff -ab -base base.test -head head.test -threshold 0.10 -- \
//	  -test.run '^$' -test.bench 'BenchmarkServiceApply$' -test.benchtime 5x
//
// Benchmarks appearing in only one stream are reported and skipped; when no
// benchmark name is common to both streams, the diff fails loudly instead of
// vacuously passing. Multiple samples of one benchmark (-count > 1) are
// combined by geometric mean.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dppr-benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dppr-benchdiff", flag.ContinueOnError)
	var (
		oldPath   = fs.String("old", "", "baseline bench stream (regression mode)")
		newPath   = fs.String("new", "", "candidate bench stream (regression mode)")
		threshold = fs.Float64("threshold", 0.15, "fail when the gated ns/op ratio exceeds 1+threshold")
		normalize = fs.Bool("normalize", false, "divide each ratio by the stream geomean and gate the worst benchmark instead of the geomean — cancels uniform machine-speed differences for cross-machine diffs")
		match     = fs.String("match", "", "regexp limiting regression mode to matching benchmark names — scope a gate to one benchmark family")
		inPath    = fs.String("in", "", "bench stream (speedup mode)")
		slow      = fs.String("slow", "", "benchmark expected to be slower (speedup mode)")
		fast      = fs.String("fast", "", "benchmark expected to be faster (speedup mode)")
		minRatio  = fs.Float64("min", 1.5, "fail when ns/op(slow)/ns/op(fast) is below this")
		ab        = fs.Bool("ab", false, "A/B mode: run the -base and -head test binaries in 5 interleaved rounds and gate the absolute median ratio per benchmark; arguments after -- go to both binaries")
		baseBin   = fs.String("base", "", "baseline test binary (A/B mode)")
		headBin   = fs.String("head", "", "candidate test binary (A/B mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *ab:
		if *normalize {
			return fmt.Errorf("-ab gates absolute same-machine ratios; -normalize does not apply")
		}
		return runAB(out, execBench, abConfig{
			base: *baseBin, head: *headBin, rounds: abRounds, threshold: *threshold, args: fs.Args(),
		})
	case *inPath != "" || *slow != "" || *fast != "":
		if *inPath == "" || *slow == "" || *fast == "" {
			return fmt.Errorf("speedup mode needs -in, -slow and -fast")
		}
		results, err := parseFile(*inPath)
		if err != nil {
			return err
		}
		return checkSpeedup(out, results, *slow, *fast, *minRatio)
	case *oldPath != "" && *newPath != "":
		oldR, err := parseFile(*oldPath)
		if err != nil {
			return err
		}
		newR, err := parseFile(*newPath)
		if err != nil {
			return err
		}
		if *match != "" {
			re, err := regexp.Compile(*match)
			if err != nil {
				return fmt.Errorf("-match: %w", err)
			}
			oldR = filterNames(oldR, re)
			newR = filterNames(newR, re)
			if len(oldR) == 0 || len(newR) == 0 {
				return fmt.Errorf("-match %q leaves no benchmarks in one of the streams", *match)
			}
		}
		return diff(out, oldR, newR, *threshold, *normalize)
	default:
		return fmt.Errorf("usage: -old FILE -new FILE (regression), -in FILE -slow NAME -fast NAME (speedup) or -ab -base BIN -head BIN [-- test flags] (A/B)")
	}
}

// testEvent is the subset of the test2json event schema the parser needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// parseFile reads a bench stream and returns the geomean ns/op per
// benchmark name.
func parseFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := parseStream(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	out := make(map[string]float64, len(samples))
	for name, ss := range samples {
		out[name] = geomean(ss)
	}
	return out, nil
}

// parseStream collects the ns/op samples per benchmark from a `go test
// -json` event stream; lines that are not JSON events are treated as raw
// benchmark output, so plain `go test -bench` text parses too. A single
// benchmark result line is typically split across several Output events —
// test2json flushes the name before the benchmark runs and the timing after
// — so Output fragments are reassembled and processed at newlines.
func parseStream(r io.Reader) (map[string][]float64, error) {
	samples := make(map[string][]float64)
	record := func(line string) {
		if name, nsOp, ok := parseBenchLine(line); ok {
			samples[name] = append(samples[name], nsOp)
		}
	}
	var pending strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action != "output" {
					continue
				}
				pending.WriteString(ev.Output)
				for {
					joined := pending.String()
					nl := strings.IndexByte(joined, '\n')
					if nl < 0 {
						break
					}
					record(joined[:nl])
					pending.Reset()
					pending.WriteString(joined[nl+1:])
				}
				continue
			}
		}
		record(line)
	}
	record(pending.String())
	return samples, sc.Err()
}

// parseBenchLine extracts (name, ns/op) from one benchmark result line of
// the form "BenchmarkName-4   12   3456 ns/op   [extra metrics...]".
func parseBenchLine(line string) (string, float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	// fields[1] must be the iteration count.
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", 0, false
	}
	for i := 2; i+1 < len(fields); i += 2 {
		if fields[i+1] == "ns/op" {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil || v <= 0 {
				return "", 0, false
			}
			return fields[0], v, true
		}
	}
	return "", 0, false
}

// filterNames keeps only the benchmarks whose name matches re.
func filterNames(results map[string]float64, re *regexp.Regexp) map[string]float64 {
	out := make(map[string]float64, len(results))
	for name, v := range results {
		if re.MatchString(name) {
			out[name] = v
		}
	}
	return out
}

func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// diff compares the common benchmarks and fails on a >threshold regression.
// Plain mode gates the geomean of the new/old ratios — the right check when
// both streams come from the same machine. Normalized mode divides every
// ratio by that geomean and gates the worst benchmark instead: a uniformly
// slower or faster machine shifts all ratios equally and cancels out, while
// a code change that regresses one benchmark relative to the others still
// trips the gate — the right check when the baseline was captured on
// different hardware.
func diff(out io.Writer, oldR, newR map[string]float64, threshold float64, normalize bool) error {
	var common []string
	for name := range oldR {
		if _, ok := newR[name]; ok {
			common = append(common, name)
		}
	}
	if len(common) == 0 {
		return fmt.Errorf("no common benchmarks between the two streams")
	}
	sort.Strings(common)
	var logSum float64
	fmt.Fprintf(out, "%-64s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, name := range common {
		ratio := newR[name] / oldR[name]
		logSum += math.Log(ratio)
		fmt.Fprintf(out, "%-64s %14.0f %14.0f %8.3f\n", name, oldR[name], newR[name], ratio)
	}
	for name := range oldR {
		if _, ok := newR[name]; !ok {
			fmt.Fprintf(out, "only in old: %s\n", name)
		}
	}
	for name := range newR {
		if _, ok := oldR[name]; !ok {
			fmt.Fprintf(out, "only in new: %s\n", name)
		}
	}
	gm := math.Exp(logSum / float64(len(common)))
	fmt.Fprintf(out, "geomean ratio over %d benchmarks: %.3f\n", len(common), gm)
	if !normalize {
		fmt.Fprintf(out, "gate: geomean <= %.3f\n", 1+threshold)
		if gm > 1+threshold {
			return fmt.Errorf("geomean regression %.1f%% exceeds %.1f%%", (gm-1)*100, threshold*100)
		}
		return nil
	}
	worstName, worst := "", 0.0
	for _, name := range common {
		if norm := newR[name] / oldR[name] / gm; norm > worst {
			worstName, worst = name, norm
		}
	}
	fmt.Fprintf(out, "gate: worst geomean-normalized ratio %.3f (%s) <= %.3f\n", worst, worstName, 1+threshold)
	if worst > 1+threshold {
		return fmt.Errorf("%s regressed %.1f%% relative to the stream geomean (threshold %.1f%%)",
			worstName, (worst-1)*100, threshold*100)
	}
	return nil
}

// checkSpeedup asserts ns/op(slow)/ns/op(fast) >= minRatio.
func checkSpeedup(out io.Writer, results map[string]float64, slow, fast string, minRatio float64) error {
	s, ok := results[slow]
	if !ok {
		return fmt.Errorf("benchmark %q not found (have: %s)", slow, strings.Join(names(results), ", "))
	}
	f, ok := results[fast]
	if !ok {
		return fmt.Errorf("benchmark %q not found (have: %s)", fast, strings.Join(names(results), ", "))
	}
	ratio := s / f
	fmt.Fprintf(out, "speedup %s over %s: %.2fx (min %.2fx)\n", fast, slow, ratio, minRatio)
	if ratio < minRatio {
		return fmt.Errorf("speedup %.2fx below required %.2fx", ratio, minRatio)
	}
	return nil
}

func names(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
