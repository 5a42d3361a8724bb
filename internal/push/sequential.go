package push

import "dynppr/internal/graph"

// Sequential is the state-of-the-art sequential local push (Algorithm 2 of
// the paper, following Zhang et al.). Frontier vertices are processed one at
// a time from a FIFO work queue; each push moves the α share of the residual
// into the estimate and propagates the remaining (1−α) share to the
// in-neighbors, scaled by their out-degrees.
type Sequential struct {
	// inQueue is reusable membership scratch for the FIFO queue, so the
	// steady-state batch path allocates nothing.
	inQueue []bool
}

// NewSequential returns the sequential push engine.
func NewSequential() *Sequential { return &Sequential{} }

// Name implements Engine.
func (e *Sequential) Name() string { return "sequential" }

// Run implements Engine.
func (e *Sequential) Run(st *State, candidates []graph.VertexID) {
	e.runPhase(st, candidates, phasePositive)
	e.runPhase(st, candidates, phaseNegative)
}

func (e *Sequential) runPhase(st *State, candidates []graph.VertexID, ph phase) {
	eps := st.cfg.Epsilon
	alpha := st.cfg.Alpha
	g := st.g
	deg := graph.OutDegreeColumn(g) // the push never mutates the graph
	queue := st.activeFrom(candidates, ph)
	if len(queue) == 0 {
		return
	}
	if n := st.r.Len(); len(e.inQueue) < n {
		e.inQueue = append(e.inQueue, make([]bool, n-len(e.inQueue))...)
	}
	inQueue := e.inQueue
	for _, v := range queue {
		inQueue[v] = true
	}
	// Work counters accumulate in locals and are flushed once per phase:
	// the shared metrics.Counters use atomic adds, which would otherwise
	// cost several locked instructions per push.
	var pushes, props, enqueues int64
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		ru := st.r.Get(int(u))
		if !ph.cond(ru, eps) {
			continue
		}
		pushes++
		// Self-update: move the α share into the estimate, clear the residual.
		st.p.Set(int(u), st.p.Get(int(u))+alpha*ru)
		st.r.Set(int(u), 0)
		st.markEstimateDirty(u)
		// Neighbor propagation: each in-neighbor v of u receives
		// (1−α)·ru/dout(v).
		in := g.InNeighbors(graph.VertexID(u))
		props += int64(len(in))
		for _, v := range in {
			dv := float64(deg[v])
			nr := st.r.Get(int(v)) + (1-alpha)*ru/dv
			st.r.Set(int(v), nr)
			if ph.cond(nr, eps) && !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, int32(v))
				enqueues++
			}
		}
	}
	// Each push is its own iteration over a one-vertex frontier.
	counters := st.Counters
	counters.AddPushes(pushes)
	counters.ObserveIterations(pushes, 1)
	counters.AddPropagations(props)
	counters.AddRandomAccesses(props)
	counters.AddEnqueues(enqueues)
}
