package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// abRounds is how many interleaved rounds A/B mode runs per side: enough for
// a median that one noisy round cannot move.
const abRounds = 5

// abConfig is the input of A/B mode: two compiled test binaries, how many
// rounds to run (abRounds outside tests), the gate, and the flags handed
// verbatim to both binaries (typically -test.run '^$' -test.bench ...
// -test.benchtime ...).
type abConfig struct {
	base, head string
	rounds     int
	threshold  float64
	args       []string
}

// benchExec runs one test binary with args and returns its stdout.
type benchExec func(bin string, args []string) (io.Reader, error)

// execBench is the real benchExec: the binary's stderr passes through, and a
// failing run reports the tail of its output.
func execBench(bin string, args []string) (io.Reader, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		tail := stdout.String()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return nil, fmt.Errorf("%s: %w\n%s", bin, err, tail)
	}
	return &stdout, nil
}

// abOrder returns the sides round i runs, in order. Even rounds run the
// base first and odd rounds the head first, so slow drift of the machine
// (thermal state, noisy neighbours, page cache) weighs on both sides alike.
func abOrder(round int) [2]string {
	if round%2 == 0 {
		return [2]string{"base", "head"}
	}
	return [2]string{"head", "base"}
}

// abCollect runs the interleaved rounds and returns, per side, one map per
// round from benchmark name to ns/op (the geomean of that run's samples).
func abCollect(out io.Writer, run benchExec, cfg abConfig) (base, head []map[string]float64, err error) {
	bins := map[string]string{"base": cfg.base, "head": cfg.head}
	for i := 0; i < cfg.rounds; i++ {
		order := abOrder(i)
		fmt.Fprintf(out, "round %d/%d: %s, then %s\n", i+1, cfg.rounds, order[0], order[1])
		for _, side := range order {
			r, err := run(bins[side], cfg.args)
			if err != nil {
				return nil, nil, fmt.Errorf("round %d, %s: %w", i+1, side, err)
			}
			samples, err := parseStream(r)
			if err != nil {
				return nil, nil, fmt.Errorf("round %d, %s: %w", i+1, side, err)
			}
			if len(samples) == 0 {
				return nil, nil, fmt.Errorf("round %d, %s: no benchmark results", i+1, side)
			}
			res := make(map[string]float64, len(samples))
			for name, ss := range samples {
				res[name] = geomean(ss)
			}
			if side == "base" {
				base = append(base, res)
			} else {
				head = append(head, res)
			}
		}
	}
	return base, head, nil
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// abGate compares the sides benchmark by benchmark and fails when the
// median head/base ns/op ratio of any benchmark exceeds 1+threshold. The
// ratio is absolute: both sides ran on the same machine, interleaved, so
// nothing is normalized away. Benchmarks on only one side (a benchmark the
// change adds or removes) are reported and skipped; no common benchmark at
// all is an error. Alongside each ratio it prints how many paired rounds the
// head won and the base side's interquartile spread, the noise the
// threshold has to clear.
func abGate(out io.Writer, base, head []map[string]float64, threshold float64) error {
	values := func(rounds []map[string]float64) map[string][]float64 {
		v := make(map[string][]float64)
		for _, r := range rounds {
			for name, ns := range r {
				v[name] = append(v[name], ns)
			}
		}
		return v
	}
	bv, hv := values(base), values(head)
	var common []string
	for name := range bv {
		if _, ok := hv[name]; ok {
			common = append(common, name)
		} else {
			fmt.Fprintf(out, "only in base: %s\n", name)
		}
	}
	for name := range hv {
		if _, ok := bv[name]; !ok {
			fmt.Fprintf(out, "only in head: %s\n", name)
		}
	}
	if len(common) == 0 {
		return fmt.Errorf("no common benchmarks between base and head")
	}
	sort.Strings(common)
	fmt.Fprintf(out, "%-56s %12s %12s %7s %6s %9s\n", "benchmark", "base ms", "head ms", "ratio", "wins", "base IQR")
	var failed []string
	for _, name := range common {
		mb, mh := quantile(bv[name], 0.5), quantile(hv[name], 0.5)
		ratio := mh / mb
		wins, pairs := 0, 0
		for i := 0; i < len(base) && i < len(head); i++ {
			b, okB := base[i][name]
			h, okH := head[i][name]
			if okB && okH {
				pairs++
				if h < b {
					wins++
				}
			}
		}
		iqr := (quantile(bv[name], 0.75) - quantile(bv[name], 0.25)) / mb
		fmt.Fprintf(out, "%-56s %12.2f %12.2f %7.3f %3d/%-2d %8.1f%%\n",
			name, mb/1e6, mh/1e6, ratio, wins, pairs, iqr*100)
		if ratio > 1+threshold {
			failed = append(failed, fmt.Sprintf("%s (%.1f%%)", name, (ratio-1)*100))
		}
	}
	fmt.Fprintf(out, "gate: every median ratio <= %.3f\n", 1+threshold)
	if len(failed) > 0 {
		return fmt.Errorf("head slower than base beyond %.1f%%: %s", threshold*100, strings.Join(failed, ", "))
	}
	return nil
}

// runAB is A/B mode end to end: interleaved rounds, then the gate.
func runAB(out io.Writer, run benchExec, cfg abConfig) error {
	if cfg.base == "" || cfg.head == "" {
		return fmt.Errorf("-ab needs -base and -head test binaries")
	}
	base, head, err := abCollect(out, run, cfg)
	if err != nil {
		return err
	}
	return abGate(out, base, head, cfg.threshold)
}
