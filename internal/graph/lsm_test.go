package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// dumpAdjacency deep-copies the full adjacency of any Adjacency implementor,
// so recorded expectations cannot alias live overlay or base arrays.
func dumpAdjacency(a Adjacency) (out, in [][]VertexID) {
	n := a.NumVertices()
	out = make([][]VertexID, n)
	in = make([][]VertexID, n)
	for v := 0; v < n; v++ {
		out[v] = append([]VertexID(nil), a.OutNeighbors(VertexID(v))...)
		in[v] = append([]VertexID(nil), a.InNeighbors(VertexID(v))...)
	}
	return out, in
}

// churn applies a deterministic mixed workload: appends, deletes, and new
// vertices, leaving a healthy pile of delta segments behind.
func churn(t *testing.T, g *Graph, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		n := g.NumVertices()
		u := VertexID(rng.Intn(n + 1)) // occasionally a brand-new vertex
		v := VertexID(rng.Intn(n + 1))
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 && g.HasEdge(u, v) {
			if err := g.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else if _, err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactPreservesOrder is the storage engine's core contract: folding
// the delta segments into a fresh base changes nothing observable — vertex
// count, edge count, and the exact element order of every adjacency list,
// which downstream is the float summation order of every push.
func TestCompactPreservesOrder(t *testing.T) {
	g := New(8)
	churn(t, g, 42, 600)
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wantOut, wantIn := dumpAdjacency(g)
	wantN, wantM := g.NumVertices(), g.NumEdges()
	epoch := g.Epoch()

	g.Compact()

	if g.Epoch() == epoch {
		t.Fatal("compaction must advance the epoch")
	}
	if g.DeltaEdges() != 0 || g.OverlaidVertices() != 0 {
		t.Fatalf("compacted graph still reports %d delta entries over %d vertices",
			g.DeltaEdges(), g.OverlaidVertices())
	}
	if g.NumVertices() != wantN || g.NumEdges() != wantM {
		t.Fatalf("compaction changed counts: %d/%d -> %d/%d", wantN, wantM, g.NumVertices(), g.NumEdges())
	}
	gotOut, gotIn := dumpAdjacency(g)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("compaction perturbed adjacency content or order")
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second compaction with no deltas must not rebuild.
	base := g.CompactedSnapshot()
	if g.CompactedSnapshot() != base {
		t.Fatal("compacting an already-compacted graph rebuilt the base")
	}
}

// TestViewStableUnderMutation pins the copy-on-write seal: a View taken at
// any point keeps returning exactly the adjacency it froze, no matter how
// the graph mutates afterwards — including in-place deletes on the very
// vertices the view overlays, and a full compaction.
func TestViewStableUnderMutation(t *testing.T) {
	g := New(6)
	churn(t, g, 7, 300)
	view := g.View()
	wantOut, wantIn := dumpAdjacency(view)
	wantM := view.NumEdges()

	churn(t, g, 8, 500)
	g.Compact()
	churn(t, g, 9, 200)

	gotOut, gotIn := dumpAdjacency(view)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("later mutations leaked into a sealed view")
	}
	if view.NumEdges() != wantM {
		t.Fatalf("view edge count drifted: %d -> %d", wantM, view.NumEdges())
	}
	// The materialized snapshot agrees with the frozen accessors.
	c := view.CSR()
	csrOut, csrIn := dumpAdjacency(c)
	if !reflect.DeepEqual(csrOut, wantOut) || !reflect.DeepEqual(csrIn, wantIn) {
		t.Fatal("view.CSR() disagrees with the view's accessors")
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCompactionProtocol drives the three-step Begin/Build/Install
// dance with writes racing in between the freeze and the install — the exact
// shape the service's background compactor produces — and checks the merged
// result is logically invisible.
func TestBackgroundCompactionProtocol(t *testing.T) {
	g := New(10)
	churn(t, g, 13, 400)

	c := g.BeginCompaction()
	// Writes after the freeze: these segments must survive the install.
	churn(t, g, 14, 250)
	wantOut, wantIn := dumpAdjacency(g)
	wantM := g.NumEdges()

	base := c.Build()
	if !g.Install(c, base) {
		t.Fatal("install rejected a current compaction")
	}
	gotOut, gotIn := dumpAdjacency(g)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("install perturbed the logical graph")
	}
	if g.NumEdges() != wantM {
		t.Fatalf("install changed edge count: %d -> %d", wantM, g.NumEdges())
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestInstallRejectsStaleCompaction covers the race the epoch guard exists
// for: an inline compaction (or checkpoint) swapping the base while a
// background build is in flight must invalidate that build.
func TestInstallRejectsStaleCompaction(t *testing.T) {
	g := New(10)
	churn(t, g, 21, 400)

	c := g.BeginCompaction()
	base := c.Build()
	g.Compact() // the inline path wins the race and bumps the epoch
	wantOut, wantIn := dumpAdjacency(g)
	epoch := g.Epoch()

	if g.Install(c, base) {
		t.Fatal("install accepted a compaction frozen before an epoch change")
	}
	if g.Epoch() != epoch {
		t.Fatal("rejected install must not touch the graph")
	}
	gotOut, gotIn := dumpAdjacency(g)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("rejected install perturbed the graph")
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestMaybeCompactPolicy checks both halves of the trigger: small deltas are
// left alone (the floor), and deltas on the order of the edge count compact.
func TestMaybeCompactPolicy(t *testing.T) {
	g := New(4)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.MaybeCompact() {
		t.Fatal("a two-entry delta must not trigger compaction")
	}
	// Push past both the floor and the edge-count ratio.
	for g.DeltaEdges() < autoCompactMinDelta {
		churn(t, g, int64(g.DeltaEdges()), 200)
	}
	if !g.MaybeCompact() {
		t.Fatalf("delta %d over %d edges must trigger compaction", g.DeltaEdges(), g.NumEdges())
	}
	if g.DeltaEdges() != 0 {
		t.Fatal("MaybeCompact reported success but left deltas behind")
	}
}

// TestFromCSRRoundTrip pins the recovery path: wrapping a compacted
// snapshot with FromCSR yields a graph indistinguishable from the original,
// sharing the base arrays with zero per-edge work, and immediately mutable.
func TestFromCSRRoundTrip(t *testing.T) {
	g := New(8)
	churn(t, g, 33, 500)
	wantOut, wantIn := dumpAdjacency(g)
	base := g.CompactedSnapshot()

	r := FromCSR(base)
	gotOut, gotIn := dumpAdjacency(r)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("FromCSR changed the graph")
	}
	if r.NumEdges() != g.NumEdges() || r.NumVertices() != g.NumVertices() {
		t.Fatal("FromCSR changed counts")
	}
	if err := r.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The recovered graph takes writes without disturbing the shared base.
	churn(t, r, 34, 300)
	if err := r.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	baseOut, _ := dumpAdjacency(base)
	for v := range wantOut {
		if !reflect.DeepEqual(baseOut[v], wantOut[v]) {
			t.Fatalf("mutating a FromCSR graph dirtied the shared base at vertex %d", v)
		}
	}
}

// wantOutDegrees derives the out-degree of every vertex from the adjacency
// lists, the ground truth the dense column must agree with.
func wantOutDegrees(g *Graph) []int32 {
	d := make([]int32, g.NumVertices())
	for u := range d {
		d[u] = int32(len(g.OutNeighbors(VertexID(u))))
	}
	return d
}

// checkOutDegrees asserts the column matches the adjacency entry by entry,
// through both the slice accessor and OutDegree, and that the graph's own
// consistency check agrees.
func checkOutDegrees(t *testing.T, g *Graph) {
	t.Helper()
	want := wantOutDegrees(g)
	if got := OutDegreeColumn(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("out-degree column %v, adjacency says %v", got, want)
	}
	for u, d := range want {
		if g.OutDegree(VertexID(u)) != int(d) {
			t.Fatalf("OutDegree(%d) = %d, want %d", u, g.OutDegree(VertexID(u)), d)
		}
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestOutDegreeColumnGrowsIntoReusedCapacity covers EnsureVertex extending
// the column inside its existing capacity: grow must zero-fill the reused
// tail, or a new vertex would inherit whatever the backing array held.
func TestOutDegreeColumnGrowsIntoReusedCapacity(t *testing.T) {
	g := New(4)
	if _, err := g.AddEdge(4, 0); err != nil { // grows 4 -> 5 slots, cap 8
		t.Fatal(err)
	}
	deg := OutDegreeColumn(g)
	if cap(deg) < 8 {
		t.Fatalf("expected spare capacity after growth, cap=%d", cap(deg))
	}
	// Dirty the spare capacity so only an explicit zero-fill passes.
	spare := deg[:cap(deg)]
	for i := len(deg); i < len(spare); i++ {
		spare[i] = 99
	}
	if _, err := g.AddEdge(6, 1); err != nil { // grows 5 -> 7 in place
		t.Fatal(err)
	}
	if &OutDegreeColumn(g)[0] != &deg[0] {
		t.Fatal("growth within capacity reallocated the column")
	}
	if g.OutDegree(5) != 0 || g.OutDegree(6) != 1 {
		t.Fatalf("grown slots read %d/%d, want 0/1", g.OutDegree(5), g.OutDegree(6))
	}
	checkOutDegrees(t, g)
	if g.OutDegree(-1) != 0 || g.OutDegree(7) != 0 {
		t.Fatal("out-of-range ids must report degree 0")
	}
}

// TestOutDegreeColumnCloneIsIndependent checks Clone copies the column: a
// clone's mutations must leave the original's degrees untouched.
func TestOutDegreeColumnCloneIsIndependent(t *testing.T) {
	g := New(8)
	churn(t, g, 51, 300)
	want := append([]int32(nil), OutDegreeColumn(g)...)

	c := g.Clone()
	checkOutDegrees(t, c)
	churn(t, c, 52, 300)
	checkOutDegrees(t, c)
	if got := OutDegreeColumn(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating a clone changed the original's degrees: %v -> %v", want, got)
	}
	checkOutDegrees(t, g)
}

// TestOutDegreeColumnAcrossBackgroundCompaction drives Begin → more
// AddEdge/RemoveEdge → Install: the column tracks the post-freeze writes,
// and the install (which changes storage, not the logical graph) leaves it
// exactly as it was.
func TestOutDegreeColumnAcrossBackgroundCompaction(t *testing.T) {
	g := New(10)
	churn(t, g, 61, 400)
	c := g.BeginCompaction()
	churn(t, g, 62, 250)
	checkOutDegrees(t, g)
	before := append([]int32(nil), OutDegreeColumn(g)...)

	if !g.Install(c, c.Build()) {
		t.Fatal("install rejected a current compaction")
	}
	if got := OutDegreeColumn(g); !reflect.DeepEqual(got, before) {
		t.Fatal("install changed the out-degree column")
	}
	checkOutDegrees(t, g)
	churn(t, g, 63, 200) // mutations over the new base keep it in step
	checkOutDegrees(t, g)
	g.Compact()
	checkOutDegrees(t, g)
}

// TestOutDegreeColumnFromImageAndAdjacency checks the two recovery
// constructors build the column: FromCSR of a checkpoint image (raw arrays
// through NewCSR, the decoder's entry point) and FromAdjacency, both with
// trailing isolated vertices that have no out-edges.
func TestOutDegreeColumnFromImageAndAdjacency(t *testing.T) {
	g := New(12)
	churn(t, g, 71, 400)
	g.EnsureVertex(VertexID(g.NumVertices() + 2))
	want := wantOutDegrees(g)

	base := g.CompactedSnapshot()
	outOff, outT := base.RawOut()
	inOff, inT := base.RawIn()
	image, err := NewCSR(
		append([]int32(nil), outOff...), append([]int32(nil), inOff...),
		append([]VertexID(nil), outT...), append([]VertexID(nil), inT...))
	if err != nil {
		t.Fatal(err)
	}
	r := FromCSR(image)
	if got := OutDegreeColumn(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromCSR column %v, want %v", got, want)
	}
	checkOutDegrees(t, r)
	churn(t, r, 72, 200)
	checkOutDegrees(t, r)

	out, in := dumpAdjacency(g)
	a, err := FromAdjacency(out, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := OutDegreeColumn(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromAdjacency column %v, want %v", got, want)
	}
	checkOutDegrees(t, a)
	checkOutDegrees(t, New(5))
	checkOutDegrees(t, FromEdges([]Edge{{0, 3}, {0, 1}, {2, 3}, {0, 3}}))
}
