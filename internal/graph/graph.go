// Package graph implements the dynamic directed graph substrate the local
// update scheme runs on. Storage is LSM-style: an immutable CSR base segment
// holds the bulk of the adjacency, and per-vertex mutable delta segments
// (overlays) absorb edge insertions and deletions. Reads fall through to the
// base for untouched vertices, so the hottest loops in the system — push
// frontier scans and cold queries — run over dense sequentially-scannable
// arrays instead of pointer-chasing per-vertex slices.
//
// Out-degrees live in their own dense []int32 column, indexed by vertex id
// and maintained by every mutation. It is the only per-vertex array the push
// kernels read for dout(v): each propagation (1−α)·R(u)/dout(v) costs one
// array load instead of an overlay-then-base lookup. OutDegreeColumn hands
// the column to the kernels, which take it before each propagation loop. It is
// a package function rather than a method so the mutable column is not
// reachable through the exported dynppr.Graph alias.
//
// A delta segment is a fully materialized adjacency list for one vertex and
// direction: the first mutation of a vertex copies its base list into the
// overlay (copy-on-first-touch), and subsequent mutations edit the overlay in
// place. Element order is preserved on both insert (append) and delete
// (shift), because adjacency order fixes the floating-point summation order
// of every push — the bit-identity guarantees of the differential suite rest
// on it. Compaction (see compact.go) merges the overlays into a fresh base by
// materializing exactly the logical adjacency, so it never perturbs order.
//
// View (see view.go) captures an O(#overlaid vertices) frozen snapshot of the
// layered state for concurrent readers; Snapshot still materializes a full
// CSR when a flat copy is wanted. Both pin their graph view by the epoch that
// advances on every base swap.
//
// Vertices are identified by dense non-negative int32 ids. The graph grows
// automatically when an edge mentions a vertex id beyond the current size,
// matching the paper's dynamic model where "an edge insertion may introduce
// new vertices".
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// VertexID identifies a vertex. IDs are dense and non-negative.
type VertexID = int32

// Edge is a directed edge u -> v.
type Edge struct {
	U, V VertexID
}

// ErrEdgeNotFound is returned by RemoveEdge when the edge does not exist.
var ErrEdgeNotFound = errors.New("graph: edge not found")

// ErrNegativeVertex is returned when an edge mentions a negative vertex id.
var ErrNegativeVertex = errors.New("graph: negative vertex id")

// Graph is a dynamic directed multigraph-free graph: at most one edge u->v is
// stored per ordered pair. It is not safe for concurrent mutation; the
// engines mutate it only between push rounds (the push itself only reads).
//
// Internally the graph is an immutable CSR base plus per-vertex overlay
// segments. An overlay slot of nil means "read the base"; a non-nil (possibly
// empty) overlay is the complete current adjacency of that vertex/direction
// and shadows the base entirely. Overlay generations implement copy-on-write
// against Views: an overlay last written before the most recent View() call
// is sealed, and the next order-preserving deletion clones it instead of
// shifting in place (appends are always safe — a View's slice header bounds
// its reads below any appended element).
type Graph struct {
	base *CSR // immutable base segment; never nil
	n    int  // vertex slots (>= base.n: vertices can be added after a compaction)
	m    int  // number of live edges

	outDeg []int32 // logical out-degree per vertex; len(outDeg) == n

	outOv  [][]VertexID // delta segment per vertex: nil = fall through to base
	inOv   [][]VertexID
	outGen []uint64 // viewGen at last write of the overlay (copy-on-write seal)
	inGen  []uint64

	overlaid   []VertexID // vertices with at least one non-nil overlay
	deltaEdges int        // total adjacency entries held in overlays (both directions)

	epoch   uint64 // bumped on every base swap; Views pin it
	viewGen uint64 // bumped by View(); drives overlay sealing

	// edgeSet tracks membership for duplicate/removal checks. It is built
	// lazily on the first mutation or HasEdge call, so read-only graphs
	// loaded from a CSR image (checkpoint recovery) never pay the O(m) map
	// construction.
	edgeSet map[Edge]struct{}
}

// New returns an empty graph pre-sized for n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return fromBase(emptyCSR(), n)
}

// FromCSR wraps an immutable CSR as the base segment of a new graph with no
// deltas. The CSR is retained as-is (zero copy): this is the checkpoint-image
// recovery constructor, and together with the lazy edge-membership index it
// makes recovery cost O(1) beyond decoding the image itself.
func FromCSR(c *CSR) *Graph {
	return fromBase(c, c.n)
}

func fromBase(c *CSR, n int) *Graph {
	if n < c.n {
		n = c.n
	}
	outDeg := make([]int32, n)
	for u := 0; u < c.n; u++ {
		outDeg[u] = c.outOffsets[u+1] - c.outOffsets[u]
	}
	return &Graph{
		base:   c,
		n:      n,
		m:      c.NumEdges(),
		outDeg: outDeg,
		outOv:  make([][]VertexID, n),
		inOv:   make([][]VertexID, n),
		outGen: make([]uint64, n),
		inGen:  make([]uint64, n),
	}
}

// FromEdges builds a graph from a list of edges, ignoring duplicates (and,
// like AddEdge, edges naming negative vertices). The result is fully
// compacted: the edges land directly in the CSR base, in first-occurrence
// order per vertex — exactly the adjacency order an AddEdge loop would have
// produced.
func FromEdges(edges []Edge) *Graph {
	set := make(map[Edge]struct{}, len(edges))
	uniq := make([]Edge, 0, len(edges))
	n := 0
	for _, e := range edges {
		if e.U < 0 || e.V < 0 {
			continue
		}
		if _, dup := set[e]; dup {
			continue
		}
		set[e] = struct{}{}
		uniq = append(uniq, e)
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	g := fromBase(csrFromEdges(n, uniq), n)
	g.edgeSet = set
	return g
}

// FromAdjacency rebuilds a graph from explicit out- and in-adjacency lists,
// preserving their exact element order. It is the (v1) checkpoint-recovery
// constructor: adjacency order is observable state (it fixes the
// floating-point summation order of subsequent pushes), so a recovered graph
// must reproduce it bit-for-bit rather than merely the same edge set. The
// two list families must describe the same edge set with no duplicates,
// otherwise an error is returned.
func FromAdjacency(out, in [][]VertexID) (*Graph, error) {
	if len(out) != len(in) {
		return nil, fmt.Errorf("graph: adjacency mismatch: %d out slots, %d in slots", len(out), len(in))
	}
	n := len(out)
	set := make(map[Edge]struct{})
	for u, nbrs := range out {
		for _, v := range nbrs {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: out[%d] names vertex %d outside [0,%d)", u, v, n)
			}
			e := Edge{VertexID(u), v}
			if _, dup := set[e]; dup {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d) in out lists", u, v)
			}
			set[e] = struct{}{}
		}
	}
	m := len(set)
	inSeen := make(map[Edge]struct{}, m)
	for v, nbrs := range in {
		for _, u := range nbrs {
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("graph: in[%d] names vertex %d outside [0,%d)", v, u, n)
			}
			e := Edge{u, VertexID(v)}
			if _, ok := set[e]; !ok {
				return nil, fmt.Errorf("graph: in lists have (%d,%d) missing from out lists", u, v)
			}
			if _, dup := inSeen[e]; dup {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d) in in lists", u, v)
			}
			inSeen[e] = struct{}{}
		}
	}
	if len(inSeen) != m {
		return nil, fmt.Errorf("graph: in lists cover %d edges, out lists %d", len(inSeen), m)
	}
	g := fromBase(csrFromAdjacency(out, in), n)
	g.edgeSet = set
	return g, nil
}

// NumVertices returns the number of vertex slots (max id seen + 1, or the
// initial size if larger).
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges currently in the graph.
func (g *Graph) NumEdges() int { return g.m }

// Epoch identifies the current base segment; it advances on every compaction
// (base swap). Logical graph content is unchanged across an epoch bump.
func (g *Graph) Epoch() uint64 { return g.epoch }

// DeltaEdges returns the total number of adjacency entries held in mutable
// delta segments (counting both directions). It is the size metric
// compaction policies trigger on, and the quantity a touched-proportional
// snapshot copies.
func (g *Graph) DeltaEdges() int { return g.deltaEdges }

// OverlaidVertices returns the number of vertices with at least one delta
// segment.
func (g *Graph) OverlaidVertices() int { return len(g.overlaid) }

// BaseEdges returns the number of edges stored in the immutable base segment
// (live edges may be fewer — deletions shadow the base — or more, when
// insertions have not been compacted yet).
func (g *Graph) BaseEdges() int { return g.base.NumEdges() }

// EnsureVertex grows the graph so that id is a valid vertex.
func (g *Graph) EnsureVertex(id VertexID) {
	need := int(id) + 1
	if need <= g.n {
		return
	}
	g.outDeg = grow(g.outDeg, need)
	g.outOv = grow(g.outOv, need)
	g.inOv = grow(g.inOv, need)
	g.outGen = grow(g.outGen, need)
	g.inGen = grow(g.inGen, need)
	g.n = need
}

// grow extends s to length n, zero-filling any reused capacity.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		old := len(s)
		s = s[:n]
		var zero T
		for i := old; i < n; i++ {
			s[i] = zero
		}
		return s
	}
	want := 2 * cap(s)
	if want < n {
		want = n
	}
	ns := make([]T, n, want)
	copy(ns, s)
	return ns
}

// ensureEdgeSet builds the lazy membership index from the logical adjacency.
func (g *Graph) ensureEdgeSet() {
	if g.edgeSet != nil {
		return
	}
	set := make(map[Edge]struct{}, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(VertexID(u)) {
			set[Edge{VertexID(u), v}] = struct{}{}
		}
	}
	g.edgeSet = set
}

// HasEdge reports whether edge u->v exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	g.ensureEdgeSet()
	_, ok := g.edgeSet[Edge{u, v}]
	return ok
}

// baseOut returns u's base-segment out list (nil when u postdates the base).
func (g *Graph) baseOut(u VertexID) []VertexID {
	if int(u) < g.base.n {
		return g.base.OutNeighbors(u)
	}
	return nil
}

func (g *Graph) baseIn(v VertexID) []VertexID {
	if int(v) < g.base.n {
		return g.base.InNeighbors(v)
	}
	return nil
}

// materializeOut creates u's out delta segment by copying the base list.
// Callers must have checked that no overlay exists yet.
func (g *Graph) materializeOut(u VertexID) []VertexID {
	base := g.baseOut(u)
	ov := make([]VertexID, len(base), len(base)+4)
	copy(ov, base)
	if g.inOv[u] == nil {
		g.overlaid = append(g.overlaid, u)
	}
	g.outOv[u] = ov
	g.outGen[u] = g.viewGen
	g.deltaEdges += len(ov)
	return ov
}

func (g *Graph) materializeIn(v VertexID) []VertexID {
	base := g.baseIn(v)
	ov := make([]VertexID, len(base), len(base)+4)
	copy(ov, base)
	if g.outOv[v] == nil {
		g.overlaid = append(g.overlaid, v)
	}
	g.inOv[v] = ov
	g.inGen[v] = g.viewGen
	g.deltaEdges += len(ov)
	return ov
}

// writableOut returns an out overlay safe to edit in place: it materializes
// the segment on first touch and clones it when a View taken since the last
// write still aliases it.
func (g *Graph) writableOut(u VertexID) []VertexID {
	ov := g.outOv[u]
	if ov == nil {
		return g.materializeOut(u)
	}
	if g.outGen[u] < g.viewGen {
		ov = append(make([]VertexID, 0, len(ov)+4), ov...)
		g.outOv[u] = ov
		g.outGen[u] = g.viewGen
	}
	return ov
}

func (g *Graph) writableIn(v VertexID) []VertexID {
	ov := g.inOv[v]
	if ov == nil {
		return g.materializeIn(v)
	}
	if g.inGen[v] < g.viewGen {
		ov = append(make([]VertexID, 0, len(ov)+4), ov...)
		g.inOv[v] = ov
		g.inGen[v] = g.viewGen
	}
	return ov
}

// AddEdge inserts the directed edge u->v. Inserting an edge that already
// exists is a no-op and returns false with a nil error; a successful insert
// returns true. Negative ids return ErrNegativeVertex.
func (g *Graph) AddEdge(u, v VertexID) (bool, error) {
	if u < 0 || v < 0 {
		return false, fmt.Errorf("%w: (%d,%d)", ErrNegativeVertex, u, v)
	}
	g.ensureEdgeSet()
	e := Edge{u, v}
	if _, ok := g.edgeSet[e]; ok {
		return false, nil
	}
	g.EnsureVertex(u)
	g.EnsureVertex(v)
	// The append itself never writes inside a sealed View's slice length,
	// but it advances the segment's generation (so compaction keeps it), and
	// a later in-place delete trusts that generation to skip the COW clone.
	// Appends therefore go through the writable path too: the segment is
	// cloned at most once per sealed view, and a View can never observe a
	// shift-delete through a shared prefix.
	g.outOv[u] = append(g.writableOut(u), v)
	g.inOv[v] = append(g.writableIn(v), u)
	g.outDeg[u]++
	g.deltaEdges += 2
	g.edgeSet[e] = struct{}{}
	g.m++
	return true, nil
}

// RemoveEdge deletes the directed edge u->v, preserving the relative order of
// the surviving neighbors (adjacency order is observable: it fixes float
// summation order). Deleting a missing edge returns ErrEdgeNotFound.
func (g *Graph) RemoveEdge(u, v VertexID) error {
	g.ensureEdgeSet()
	e := Edge{u, v}
	if _, ok := g.edgeSet[e]; !ok {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeNotFound, u, v)
	}
	delete(g.edgeSet, e)
	g.outOv[u] = removeInOrder(g.writableOut(u), v)
	g.inOv[v] = removeInOrder(g.writableIn(v), u)
	g.outDeg[u]--
	g.deltaEdges -= 2
	g.m--
	return nil
}

// removeInOrder removes the first occurrence of x from s, shifting the tail
// left so the surviving element order is unchanged.
func removeInOrder(s []VertexID, x VertexID) []VertexID {
	for i, y := range s {
		if y == x {
			copy(s[i:], s[i+1:])
			return s[:len(s)-1]
		}
	}
	return s
}

// OutDegree returns the out-degree of u (0 for out-of-range ids).
func (g *Graph) OutDegree(u VertexID) int {
	if u < 0 || int(u) >= g.n {
		return 0
	}
	return int(g.outDeg[u])
}

// OutDegreeColumn returns g's out-degree column: entry u is g.OutDegree(u),
// for every vertex slot. The slice is owned by the graph and valid only until
// the next mutation (EnsureVertex may reallocate it, AddEdge/RemoveEdge edit
// it); callers must not write to it. Push kernels take it before a
// propagation loop and index it directly inside.
func OutDegreeColumn(g *Graph) []int32 { return g.outDeg }

// InDegree returns the in-degree of v (0 for out-of-range ids).
func (g *Graph) InDegree(v VertexID) int {
	if v < 0 || int(v) >= g.n {
		return 0
	}
	if ov := g.inOv[v]; ov != nil {
		return len(ov)
	}
	if int(v) < g.base.n {
		return g.base.InDegree(v)
	}
	return 0
}

// OutNeighbors returns the out-neighbor slice of u. The slice is owned by the
// graph; callers must not mutate it and must not hold it across mutations
// (a mutation or compaction may redirect the vertex to a different segment).
func (g *Graph) OutNeighbors(u VertexID) []VertexID {
	if u < 0 || int(u) >= g.n {
		return nil
	}
	if ov := g.outOv[u]; ov != nil {
		return ov
	}
	return g.baseOut(u)
}

// InNeighbors returns the in-neighbor slice of v with the same aliasing rules
// as OutNeighbors.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	if v < 0 || int(v) >= g.n {
		return nil
	}
	if ov := g.inOv[v]; ov != nil {
		return ov
	}
	return g.baseIn(v)
}

// Edges returns all edges in an unspecified order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(VertexID(u)) {
			out = append(out, Edge{VertexID(u), v})
		}
	}
	return out
}

// Clone returns a deep copy of the graph. The immutable base segment is
// shared (it is never written); delta segments are copied.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		base:       g.base,
		n:          g.n,
		m:          g.m,
		outDeg:     append([]int32(nil), g.outDeg...),
		outOv:      make([][]VertexID, g.n),
		inOv:       make([][]VertexID, g.n),
		outGen:     make([]uint64, g.n),
		inGen:      make([]uint64, g.n),
		overlaid:   append([]VertexID(nil), g.overlaid...),
		deltaEdges: g.deltaEdges,
		epoch:      g.epoch,
	}
	for _, u := range g.overlaid {
		if s := g.outOv[u]; s != nil {
			c.outOv[u] = append(make([]VertexID, 0, len(s)), s...)
		}
		if s := g.inOv[u]; s != nil {
			c.inOv[u] = append(make([]VertexID, 0, len(s)), s...)
		}
	}
	if g.edgeSet != nil {
		c.edgeSet = make(map[Edge]struct{}, len(g.edgeSet))
		for e := range g.edgeSet {
			c.edgeSet[e] = struct{}{}
		}
	}
	return c
}

// AverageDegree returns m/n, the average out-degree, or 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// MaxOutDegree returns the largest out-degree in the graph.
func (g *Graph) MaxOutDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.OutDegree(VertexID(u)); d > max {
			max = d
		}
	}
	return max
}

// TopDegreeVertices returns up to k vertex ids sorted by decreasing
// out-degree (ties broken by ascending id). It backs the paper's "top-10 /
// top-1K / top-1M out-degree" source selection (Figure 7).
func (g *Graph) TopDegreeVertices(k int) []VertexID {
	n := g.n
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = VertexID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.OutDegree(ids[a]), g.OutDegree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	return ids[:k]
}

// DegreeHistogram returns a map from out-degree to the number of vertices
// with that out-degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for u := 0; u < g.n; u++ {
		h[g.OutDegree(VertexID(u))]++
	}
	return h
}

// CheckConsistency validates the internal invariants of the graph: the edge
// set, the logical out lists and in lists must describe the same edge
// multiset, m must equal their cardinality, the out-degree column must match
// the out lists, and the delta-segment accounting
// (deltaEdges, overlaid registry) must match the segments actually present.
// It is used by tests and by failure injection tooling.
func (g *Graph) CheckConsistency() error {
	if len(g.outOv) != g.n || len(g.inOv) != g.n {
		return fmt.Errorf("graph: %d vertices but %d out / %d in overlay slots", g.n, len(g.outOv), len(g.inOv))
	}
	if len(g.outDeg) != g.n {
		return fmt.Errorf("graph: %d vertices but %d out-degree entries", g.n, len(g.outDeg))
	}
	g.ensureEdgeSet()
	countOut := 0
	for u := 0; u < g.n; u++ {
		nbrs := g.OutNeighbors(VertexID(u))
		if int(g.outDeg[u]) != len(nbrs) {
			return fmt.Errorf("graph: out-degree column has %d for vertex %d, adjacency has %d", g.outDeg[u], u, len(nbrs))
		}
		countOut += len(nbrs)
		for _, v := range nbrs {
			if _, ok := g.edgeSet[Edge{VertexID(u), v}]; !ok {
				return fmt.Errorf("graph: out list has (%d,%d) missing from edge set", u, v)
			}
		}
	}
	countIn := 0
	for v := 0; v < g.n; v++ {
		nbrs := g.InNeighbors(VertexID(v))
		countIn += len(nbrs)
		for _, u := range nbrs {
			if _, ok := g.edgeSet[Edge{u, VertexID(v)}]; !ok {
				return fmt.Errorf("graph: in list has (%d,%d) missing from edge set", u, v)
			}
		}
	}
	if countOut != g.m || countIn != g.m || len(g.edgeSet) != g.m {
		return fmt.Errorf("graph: edge count mismatch m=%d out=%d in=%d set=%d",
			g.m, countOut, countIn, len(g.edgeSet))
	}
	delta := 0
	reg := make(map[VertexID]bool, len(g.overlaid))
	for _, u := range g.overlaid {
		if reg[u] {
			return fmt.Errorf("graph: vertex %d registered as overlaid twice", u)
		}
		reg[u] = true
		delta += len(g.outOv[u]) + len(g.inOv[u])
	}
	for u := 0; u < g.n; u++ {
		if (g.outOv[u] != nil || g.inOv[u] != nil) && !reg[VertexID(u)] {
			return fmt.Errorf("graph: vertex %d has a delta segment but is not registered", u)
		}
	}
	if delta != g.deltaEdges {
		return fmt.Errorf("graph: delta accounting mismatch: counted %d, recorded %d", delta, g.deltaEdges)
	}
	return nil
}
