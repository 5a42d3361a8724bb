package dynppr

import (
	"errors"
	"fmt"
	"testing"
)

// TestServicePoolDeterminism guards the Service's push scheduler: sources
// are claimed dynamically by a pool of PoolWorkers goroutines, and that must
// never show in the results. Services at PoolWorkers 1, 2 and 4 replay one
// stream with a source added and another removed mid-stream; after every
// batch each tracked source's estimates and residuals must be bit-identical
// across the pool sizes and to a sequential-engine Tracker for that source.
func TestServicePoolDeterminism(t *testing.T) {
	const (
		batches = 8
		addAt   = 2 // AddSource(extra) after this batch
		dropAt  = 5 // RemoveSource(removed) after this batch
	)
	initial, stream := recoveryWorkload(t, 300, 3000, batches, 20)
	top := GraphFromEdges(initial).TopDegreeVertices(5)
	sources, extra, removed := top[:4], top[4], top[0]

	opts := DefaultOptions()
	opts.Engine = EngineSequential
	opts.Epsilon = 1e-5

	pools := []int{1, 2, 4}
	svcs := make([]*Service, len(pools))
	for i, pool := range pools {
		svc, err := NewService(GraphFromEdges(initial), sources, serviceOptions(opts, pool))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		svcs[i] = svc
	}
	oracles := make(map[VertexID]*Tracker, len(top))
	for _, s := range sources {
		tr, err := NewTracker(GraphFromEdges(initial), s, opts)
		if err != nil {
			t.Fatal(err)
		}
		oracles[s] = tr
	}

	for k, b := range stream {
		for _, svc := range svcs {
			if _, err := svc.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range oracles {
			tr.ApplyBatch(b)
		}
		switch k {
		case addAt:
			for _, svc := range svcs {
				if err := svc.AddSource(extra); err != nil {
					t.Fatal(err)
				}
			}
			// The live addition cold-starts on the current graph, so its
			// oracle cold-starts on a copy of the same graph.
			tr, err := NewTracker(oracles[removed].Graph().Clone(), extra, opts)
			if err != nil {
				t.Fatal(err)
			}
			oracles[extra] = tr
		case dropAt:
			for _, svc := range svcs {
				if err := svc.RemoveSource(removed); err != nil {
					t.Fatal(err)
				}
			}
			delete(oracles, removed)
		}
		for i, svc := range svcs {
			assertPoolState(t, svc, oracles, fmt.Sprintf("batch %d, pool %d", k, pools[i]))
			if k > dropAt {
				if _, err := svc.Info(removed); !errors.Is(err, ErrUnknownSource) {
					t.Fatalf("batch %d, pool %d: removed source still served (%v)", k, pools[i], err)
				}
			}
		}
	}
}

// assertPoolState checks that svc tracks exactly the oracles' sources and
// that each source's live state and published snapshot are bit-identical to
// its oracle Tracker. The pipeline is idle between ApplyBatch calls, so
// reading the live state is safe.
func assertPoolState(t *testing.T, svc *Service, oracles map[VertexID]*Tracker, tag string) {
	t.Helper()
	if got := len(svc.Sources()); got != len(oracles) {
		t.Fatalf("%s: %d sources tracked, want %d", tag, got, len(oracles))
	}
	for s, tr := range oracles {
		src, err := svc.lookup(s)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !bitsEqual(src.st.Estimates(), tr.Estimates()) {
			t.Fatalf("%s: source %d estimates not bit-identical to the sequential tracker", tag, s)
		}
		if !bitsEqual(src.st.Residuals(), tr.st.Residuals()) {
			t.Fatalf("%s: source %d residuals not bit-identical to the sequential tracker", tag, s)
		}
		est, info, err := svc.EstimatesInfo(s)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Converged() || !bitsEqual(est, tr.Estimates()) {
			t.Fatalf("%s: source %d published snapshot differs from the tracker (info %+v)", tag, s, info)
		}
	}
}
