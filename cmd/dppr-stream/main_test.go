package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"dynppr"
)

func TestResolveConfigStream(t *testing.T) {
	cfg, err := resolveConfig("youtube", 0, 0, 1)
	if err != nil || cfg.Name != "youtube" {
		t.Fatalf("dataset lookup failed: %+v, %v", cfg, err)
	}
	cfg, err = resolveConfig("ignored", 100, 500, 7)
	if err != nil || cfg.Vertices != 100 || cfg.Edges != 500 || cfg.Model != dynppr.ModelRMAT {
		t.Fatalf("override failed: %+v, %v", cfg, err)
	}
	if _, err := resolveConfig("no-such", 0, 0, 1); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}

func TestRunOnGeneratedGraph(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-vertices", "300", "-edges", "3000", "-batch", "20", "-slides", "3",
		"-epsilon", "1e-4", "-engine", "sequential", "-top", "3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cold start converged", "slide   1", "throughput", "top-3 vertices"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunEngines(t *testing.T) {
	for _, engine := range []string{"parallel", "vertex-centric", "deterministic"} {
		var buf bytes.Buffer
		err := run([]string{
			"-vertices", "200", "-edges", "1500", "-batch", "10", "-slides", "2",
			"-epsilon", "1e-3", "-engine", engine,
		}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-engine", "warp-drive", "-vertices", "10", "-edges", "20"}, &buf); err == nil {
		t.Fatal("unknown engine must fail")
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]dynppr.EngineKind{
		"parallel":       dynppr.EngineParallel,
		"sequential":     dynppr.EngineSequential,
		"vertex-centric": dynppr.EngineVertexCentric,
		"deterministic":  dynppr.EngineDeterministic,
	} {
		got, err := dynppr.ParseEngineKind(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngineKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := dynppr.ParseEngineKind("gpu"); err == nil {
		t.Fatal("unknown engine must fail")
	}
}

func TestRunFromInputFile(t *testing.T) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelBarabasiAlbert, Vertices: 200, Edges: 2000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := dynppr.SaveEdges(path, edges); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = run([]string{"-input", path, "-batch", "20", "-slides", "2", "-epsilon", "1e-4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), path) {
		t.Fatalf("output should name the input file:\n%s", buf.String())
	}
}

func TestRunInputErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-input", "/does/not/exist.txt"}, &buf); err == nil {
		t.Fatal("missing input file must fail")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := dynppr.SaveEdges(empty, nil); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-input", empty}, &buf); err == nil {
		t.Fatal("empty input must fail")
	}
	if err := run([]string{"-dataset", "no-such"}, &buf); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}
