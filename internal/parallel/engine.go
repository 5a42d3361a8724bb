package parallel

import (
	"fmt"

	"dynppr/internal/graph"
	"dynppr/internal/push"
)

// PushEngine runs the deterministic parallel push over a contribution-PPR
// state (the reverse formulation of internal/push): frontier vertex u sends
// (1−α)·r(u)/dout(v) to every in-neighbor v. It implements push.Engine and
// produces bit-identical results at every worker count — see the package
// comment for the schedule.
type PushEngine struct {
	m *Machine

	// Cached per-state hot-path pieces: the propagate closure and the dirty
	// hook are bound to one state's graph and counters, so rebinding (and
	// re-allocating the closures) only happens when Run is handed a
	// different state — never on the steady-state batch path, where one
	// engine instance serves one source. candBuf is the reusable sorted
	// candidate buffer.
	boundTo   *push.State
	propagate PropagateFunc
	candBuf   []int32
}

// NewPushEngine returns a deterministic engine with the given degree of
// parallelism (<= 0 selects GOMAXPROCS) and the default adaptive cutover.
func NewPushEngine(workers int) *PushEngine {
	return &PushEngine{m: NewMachine(workers, 0)}
}

// NewPushEngineCutover is NewPushEngine with an explicit cutover, exposed
// for tests that pin the inline and fanned-out paths.
func NewPushEngineCutover(workers, cutover int) *PushEngine {
	return &PushEngine{m: NewMachine(workers, cutover)}
}

// Name implements push.Engine.
func (e *PushEngine) Name() string {
	return fmt.Sprintf("deterministic-w%d", e.m.Workers())
}

// Workers returns the configured degree of parallelism.
func (e *PushEngine) Workers() int { return e.m.Workers() }

// Run implements push.Engine.
func (e *PushEngine) Run(st *push.State, candidates []graph.VertexID) {
	if e.boundTo != st {
		e.bind(st)
	}
	p, r := st.Vectors()
	var cands []int32 // nil requests a full scan
	if candidates != nil {
		e.candBuf = SortedCandidatesInto(e.candBuf, candidates, r.Len())
		cands = e.candBuf
	}
	e.m.Converge(p, r, st.Alpha(), st.Epsilon(), cands, st.Counters, e.propagate)
}

// bind points the cached closures at st: propagation reads st's graph and
// counters, and the machine's frontier hook feeds st's estimate-dirty set
// (each round's frontier is exactly the set of estimates the round updates),
// which is what lets SnapshotSlot.Publish copy only what changed.
func (e *PushEngine) bind(st *push.State) {
	g := st.Graph()
	counters := st.Counters
	w := 1 - st.Alpha()
	e.propagate = func(d *Delta, u int32, ru float64) {
		in := g.InNeighbors(u)
		counters.AddPropagations(int64(len(in)))
		counters.AddRandomAccesses(int64(len(in)))
		share := w * ru
		deg := graph.OutDegreeColumn(g) // re-read per call: mutations between runs may reallocate it
		for _, v := range in {
			d.Add(v, share/float64(deg[v]))
		}
	}
	e.m.SetFrontierHook(st.MarkEstimatesDirty)
	e.boundTo = st
}
