package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// fakeRuns serves canned benchmark output per binary, one entry per call in
// call order, and records the order the binaries were invoked in.
type fakeRuns struct {
	outputs map[string][]string
	calls   []string
	args    [][]string
}

func (f *fakeRuns) exec(bin string, args []string) (io.Reader, error) {
	f.calls = append(f.calls, bin)
	f.args = append(f.args, args)
	outs := f.outputs[bin]
	if len(outs) == 0 {
		return nil, fmt.Errorf("%s: no canned output left", bin)
	}
	f.outputs[bin] = outs[1:]
	return strings.NewReader(outs[0]), nil
}

// benchOut renders a plain `go test -bench` stream with one line per
// name/ns pair.
func benchOut(pairs ...any) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\n")
	for i := 0; i+1 < len(pairs); i += 2 {
		fmt.Fprintf(&sb, "%s \t 5\t %d ns/op\t 12.0 ms/batch\n", pairs[i], pairs[i+1])
	}
	sb.WriteString("PASS\n")
	return sb.String()
}

func TestABOrderAlternates(t *testing.T) {
	f := &fakeRuns{outputs: map[string][]string{}}
	for i := 0; i < 5; i++ {
		f.outputs["base.test"] = append(f.outputs["base.test"], benchOut("BenchmarkX-4", 100))
		f.outputs["head.test"] = append(f.outputs["head.test"], benchOut("BenchmarkX-4", 100))
	}
	var sb strings.Builder
	args := []string{"-test.run", "^$", "-test.bench", "BenchmarkX$"}
	err := runAB(&sb, f.exec, abConfig{base: "base.test", head: "head.test", rounds: 5, threshold: 0.1, args: args})
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	want := []string{
		"base.test", "head.test",
		"head.test", "base.test",
		"base.test", "head.test",
		"head.test", "base.test",
		"base.test", "head.test",
	}
	if strings.Join(f.calls, " ") != strings.Join(want, " ") {
		t.Fatalf("call order %v, want %v", f.calls, want)
	}
	for _, a := range f.args {
		if strings.Join(a, " ") != strings.Join(args, " ") {
			t.Fatalf("binary got args %v, want %v", a, args)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 3}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{7}, 0.5, 7},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{10, 20}, 0.25, 12.5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("quantile reordered its input")
	}
}

// abStreams builds per-round canned outputs: round i of a side reports
// ns[i] for every named benchmark.
func abStreams(names []string, ns []int) []string {
	out := make([]string, len(ns))
	for i, v := range ns {
		var pairs []any
		for _, n := range names {
			pairs = append(pairs, n, v)
		}
		out[i] = benchOut(pairs...)
	}
	return out
}

func TestABGateUsesAbsoluteMedianRatio(t *testing.T) {
	names := []string{"BenchmarkServiceApply/sources=8-4"}
	base := []int{100, 104, 98, 250, 101} // one outlier round: the median ignores it
	cases := []struct {
		name      string
		head      []int
		threshold float64
		pass      bool
	}{
		// Head median 108 vs base median 101: +6.9%.
		{"small slowdown within threshold", []int{108, 107, 110, 109, 90}, 0.10, true},
		{"same slowdown over a tighter threshold", []int{108, 107, 110, 109, 90}, 0.05, false},
		// A uniform 30% slowdown is a regression: nothing is normalized away.
		{"uniform slowdown fails", []int{131, 135, 127, 325, 131}, 0.10, false},
		{"improvement passes any threshold", []int{80, 82, 79, 81, 200}, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := &fakeRuns{outputs: map[string][]string{
				"b": abStreams(names, base),
				"h": abStreams(names, c.head),
			}}
			var sb strings.Builder
			err := runAB(&sb, f.exec, abConfig{base: "b", head: "h", rounds: 5, threshold: c.threshold})
			if (err == nil) != c.pass {
				t.Fatalf("pass=%v, want %v: %v\n%s", err == nil, c.pass, err, sb.String())
			}
		})
	}
}

func TestABGateReportsWinsAndPerBenchmarkFailure(t *testing.T) {
	// Two benchmarks: one faster in every round, one 20% slower. The gate
	// is per benchmark, so the slow one fails even though the geomean of
	// the two ratios would pass.
	base := []map[string]float64{
		{"BenchmarkA": 100, "BenchmarkB": 100},
		{"BenchmarkA": 102, "BenchmarkB": 101},
		{"BenchmarkA": 99, "BenchmarkB": 99},
	}
	head := []map[string]float64{
		{"BenchmarkA": 70, "BenchmarkB": 120},
		{"BenchmarkA": 71, "BenchmarkB": 121},
		{"BenchmarkA": 69, "BenchmarkB": 119},
	}
	var sb strings.Builder
	err := abGate(&sb, base, head, 0.15)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkB") || strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("gate must fail on BenchmarkB alone, got %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "3/3") || !strings.Contains(sb.String(), "0/3") {
		t.Fatalf("report must count paired wins:\n%s", sb.String())
	}
}

func TestABGateOneSidedBenchmarks(t *testing.T) {
	// A benchmark the change adds appears only on the head side: it is
	// reported and skipped, the common ones are gated.
	base := []map[string]float64{{"BenchmarkOld": 100}}
	head := []map[string]float64{{"BenchmarkOld": 101, "BenchmarkNew": 5}}
	var sb strings.Builder
	if err := abGate(&sb, base, head, 0.1); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "only in head: BenchmarkNew") {
		t.Fatalf("one-sided benchmark not reported:\n%s", sb.String())
	}
	if err := abGate(&sb, []map[string]float64{{"BenchmarkA": 1}}, []map[string]float64{{"BenchmarkB": 1}}, 0.1); err == nil {
		t.Fatal("disjoint sides must fail, not vacuously pass")
	}
}

func TestABErrors(t *testing.T) {
	var sb strings.Builder
	f := &fakeRuns{outputs: map[string][]string{"b": {"no results\n"}, "h": {benchOut("BenchmarkX", 1)}}}
	if err := runAB(&sb, f.exec, abConfig{base: "b", head: "h", rounds: 1}); err == nil {
		t.Fatal("a run without benchmark results must fail")
	}
	f = &fakeRuns{outputs: map[string][]string{"b": {benchOut("BenchmarkX", 1)}}}
	if err := runAB(&sb, f.exec, abConfig{base: "b", head: "h", rounds: 1}); err == nil {
		t.Fatal("a failing binary must fail the run")
	}
	if err := runAB(&sb, f.exec, abConfig{base: "b", rounds: 5}); err == nil {
		t.Fatal("missing -head must fail")
	}
	if err := run([]string{"-ab", "-normalize", "-base", "b", "-head", "h"}, &sb); err == nil {
		t.Fatal("-ab with -normalize must be rejected")
	}
}
