package graphstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"histwalk/internal/graph"
)

// benchFiles materializes one medium graph in both source formats —
// text edge list and packed .hwg — and returns the two paths. The
// graph is built once per benchmark binary.
func benchFiles(b *testing.B) (textPath, hwgPath string, probe []graph.Node) {
	b.Helper()
	const n, m = 20000, 150000
	rng := rand.New(rand.NewSource(1))
	bl := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		bl.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
	}
	// A ring keeps every node connected so probes never hit degree 0.
	for i := 0; i < n; i++ {
		bl.AddEdge(graph.Node(i), graph.Node((i+1)%n))
	}
	g := bl.Build()
	g.SetName("coldstart")

	dir := b.TempDir()
	textPath = filepath.Join(dir, "g.txt")
	f, err := os.Create(textPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	hwgPath = filepath.Join(dir, "g.hwg")
	if err := WriteFile(hwgPath, g); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		probe = append(probe, graph.Node(rng.Intn(n)))
	}
	return textPath, hwgPath, probe
}

// touchRows reads a handful of neighbor rows, standing in for the
// first few walk steps after a cold start.
func touchRows(b *testing.B, g *graph.Graph, probe []graph.Node) {
	b.Helper()
	var sink int
	for _, v := range probe {
		ns := g.Neighbors(v)
		if len(ns) == 0 {
			b.Fatalf("probe node %d has no neighbors", v)
		}
		sink += int(ns[len(ns)-1])
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkColdStartLoad measures time-to-first-walk-step from a cold
// process: opening the graph and serving the first neighbor rows. The
// mmap variant opens the packed .hwg store (O(1) header decode, rows
// served from the page cache); the text variant parses the edge list
// into a heap graph, which is the pre-store baseline. The mmap
// variant's allocs/op is gated in CI via cmd/benchgate and
// BENCH_micro.json — opening a store must stay O(attrs), independent
// of graph size. The text variant allocates the whole adjacency by
// design and is reported for the ratio only.
func BenchmarkColdStartLoad(b *testing.B) {
	textPath, hwgPath, probe := benchFiles(b)

	b.Run("mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := Open(hwgPath)
			if err != nil {
				b.Fatal(err)
			}
			touchRows(b, m, probe)
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(textPath)
			if err != nil {
				b.Fatal(err)
			}
			g, _, err := graph.ReadEdgeList(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			touchRows(b, g, probe)
		}
	})
}

// BenchmarkPack measures the streaming converter itself (text → .hwg,
// external sort with the default chunk size). Informational only.
func BenchmarkPack(b *testing.B) {
	textPath, _, _ := benchFiles(b)
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(textPath)
		if err != nil {
			b.Fatal(err)
		}
		out := filepath.Join(dir, fmt.Sprintf("p%d.hwg", i))
		if _, err := Pack(f, out, PackOptions{}); err != nil {
			b.Fatal(err)
		}
		f.Close()
		os.Remove(out)
	}
}
