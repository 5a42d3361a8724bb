package main

import (
	"math/rand"

	"dynppr/internal/edgeio"
	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/httpapi"
	"dynppr/internal/stream"
)

// Input sizing shared by every workload: one R-MAT edge list (Graph500
// a/b/c), fixed like a dataset, whose edges arrive in an order drawn from
// the workload seed. The first half of the arrivals is the initial window
// the daemon loads from its -input file; the rest feeds the sliding-window
// update batches.
const (
	graphSeed       = 1
	numVertices     = 100_000
	numEdges        = 1_000_000
	initialFraction = 0.5
	numSources      = 8
	topK            = 10
	queryBatchSize  = 8
	zipfS           = 1.1
)

// inputs is everything a workload sends that does not depend on the daemon:
// the initial edge list and the arrival stream the update batches slide over.
type inputs struct {
	initial []graph.Edge
	stream  *stream.Stream
}

// genInputs derives the workload input from seed alone. The seed draws the
// arrival order, and with it the initial window, every update batch and, in
// readGen, every request; the generated edge list itself is the same for
// every seed, as a benchmark dataset would be.
func genInputs(seed int64) (*inputs, error) {
	edges, err := gen.EdgeList(gen.Config{
		Name: "perfbench-rmat", Model: gen.RMAT,
		Vertices: numVertices, Edges: numEdges, Seed: graphSeed,
	})
	if err != nil {
		return nil, err
	}
	s := stream.NewStream(edges, seed)
	_, initial := stream.NewSlidingWindow(s, initialFraction)
	return &inputs{initial: initial, stream: s}, nil
}

// window returns a fresh sliding window over the arrival stream; every
// consumer (the daemon traffic, the replica, the traced run) replays the same batches.
func (in *inputs) window() *stream.SlidingWindow {
	w, _ := stream.NewSlidingWindow(in.stream, initialFraction)
	return w
}

// writeEdgeFile writes the initial window in the daemon's -input format.
func (in *inputs) writeEdgeFile(path string) error {
	return edgeio.SaveFile(path, in.initial)
}

// reqKind names the request classes the workloads send.
type reqKind int

const (
	reqTopK reqKind = iota
	reqEstimate
	reqQuery
)

func (k reqKind) String() string {
	switch k {
	case reqTopK:
		return "topk"
	case reqEstimate:
		return "estimate"
	default:
		return "query"
	}
}

// readReq is one generated read.
type readReq struct {
	kind    reqKind
	source  graph.VertexID
	vertex  graph.VertexID // estimate target
	queries []httpapi.Query
}

// readGen produces one connection's read stream. It is seeded from the
// workload seed and the connection index, so a closed loop that completes
// more requests only reads further into the same sequence.
type readGen struct {
	workload string
	rng      *rand.Rand
	tracked  []graph.VertexID
	n        int
	next     int // round-robin cursor for ingest
	perm     []int
	zipf     *rand.Zipf
}

func newReadGen(workload string, seed int64, conn int, tracked []graph.VertexID, n int) *readGen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 17))
	g := &readGen{workload: workload, rng: rng, tracked: tracked, n: n}
	if workload == "longtail" {
		// Which vertices are popular is a property of the dataset, like the
		// graph itself; the seed draws the requests from it.
		g.perm = popularity(n)
		g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	}
	return g
}

// popularity ranks the n vertices for the longtail Zipf draws: rank i is
// vertex popularity(n)[i].
func popularity(n int) []int { return rand.New(rand.NewSource(graphSeed + 31)).Perm(n) }

func (g *readGen) nextRead() readReq {
	switch g.workload {
	case "ingest":
		s := g.tracked[g.next%len(g.tracked)]
		g.next++
		return readReq{kind: reqTopK, source: s}
	case "longtail":
		return readReq{kind: reqTopK, source: graph.VertexID(g.perm[g.zipf.Uint64()])}
	}
	// hotread: 60% tracked top-k, 30% estimate of a random vertex, 10% a
	// POST /query of queryBatchSize tracked top-k reads.
	x := g.rng.Intn(10)
	s := g.tracked[g.rng.Intn(len(g.tracked))]
	switch {
	case x < 6:
		return readReq{kind: reqTopK, source: s}
	case x < 9:
		return readReq{kind: reqEstimate, source: s, vertex: graph.VertexID(g.rng.Intn(g.n))}
	}
	qs := make([]httpapi.Query, queryBatchSize)
	for i := range qs {
		qs[i] = httpapi.Query{Kind: httpapi.KindTopK, Source: g.tracked[g.rng.Intn(len(g.tracked))], K: topK}
	}
	return readReq{kind: reqQuery, queries: qs}
}
