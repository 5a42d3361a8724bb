package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynppr/internal/graph"
)

// TestSeededInputs checks that a seed fully determines the edge file, the
// batch stream and every connection's request stream, and that another seed
// changes them.
func TestSeededInputs(t *testing.T) {
	dir := t.TempDir()
	tracked := []graph.VertexID{0, 1, 2, 3, 4, 5, 6, 7}
	for _, w := range workloadNames {
		digest := func(seed int64, file string) string {
			d, err := streamDigest(w, seed, filepath.Join(dir, file), tracked, 50, 500)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		a, b, c := digest(1, w+"-a"), digest(1, w+"-b"), digest(2, w+"-c")
		if a != b {
			t.Errorf("%s: seed 1 gave two different input streams", w)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same input stream", w)
		}
	}
}

func TestLongtailSampleIsUntrackedAndSeeded(t *testing.T) {
	tracked := []graph.VertexID{0, 1, 2}
	a := longtailSample(7, 1000, tracked)
	b := longtailSample(7, 1000, tracked)
	if len(a) != checkTailRanks {
		t.Fatalf("sample of %d, want %d", len(a), checkTailRanks)
	}
	seen := map[graph.VertexID]bool{}
	for i, s := range a {
		if s != b[i] {
			t.Errorf("sample differs for the same seed: %v vs %v", a, b)
		}
		if s <= 2 || seen[s] {
			t.Errorf("sample %v holds a tracked or repeated source", a)
		}
		seen[s] = true
	}
}

// streamDigest hashes the edge file bytes, the first batches of the update
// stream and the first reads of every connection for a workload and seed.
// Equal digests mean byte-identical inputs.
func streamDigest(workload string, seed int64, edgeFile string, tracked []graph.VertexID, batches, reads int) (string, error) {
	in, err := genInputs(seed)
	if err != nil {
		return "", err
	}
	if err := in.writeEdgeFile(edgeFile); err != nil {
		return "", err
	}
	data, err := os.ReadFile(edgeFile)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(data)
	w := in.window()
	var buf [9]byte
	for i := 0; i < batches; i++ {
		for _, u := range w.Slide(workloadSpec(workload).batchSlide) {
			binary.LittleEndian.PutUint32(buf[0:], uint32(u.U))
			binary.LittleEndian.PutUint32(buf[4:], uint32(u.V))
			buf[8] = byte(u.Op)
			h.Write(buf[:])
		}
	}
	n := graph.FromEdges(in.initial).NumVertices()
	for conn := 0; conn < 2; conn++ {
		g := newReadGen(workload, seed, conn, tracked, n)
		for i := 0; i < reads; i++ {
			fmt.Fprintf(h, "%+v\n", g.nextRead())
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
