// Command graphstat prints the Table 1 statistics row (nodes, edges,
// average degree, average clustering coefficient, triangles) for
// built-in datasets or an edge-list file, so the synthetic stand-ins
// can be audited against the paper's real-data numbers.
//
// Usage:
//
//	graphstat                      # all built-in datasets (default scale)
//	graphstat -dataset yelp -n 6000
//	graphstat -edges graph.txt
//	graphstat -store graph.hwg     # packed binary store, streamed via mmap
//
// -store opens a packed .hwg graph store through the mmap backend and
// computes the statistics over a zero-copy view of the mapping — no
// text parse, no heap copy of the adjacency, so stats on a packed
// multi-gigabyte graph start instantly and stay within a small
// constant of resident heap.
package main

import (
	"flag"
	"fmt"
	"os"

	"histwalk"
	"histwalk/internal/dataset"
	"histwalk/internal/experiment"
)

func main() {
	datasetName := flag.String("dataset", "", "single built-in dataset (default: all)")
	edges := flag.String("edges", "", "edge-list file (overrides -dataset)")
	store := flag.String("store", "", ".hwg graph store, streamed via mmap (overrides -dataset)")
	n := flag.Int("n", 0, "scale override for gplus/yelp/youtube (0 = default)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	var graphs []*histwalk.Graph
	switch {
	case *store != "":
		g, err := histwalk.OpenGraphStore(*store)
		if err != nil {
			fail(err)
		}
		defer g.Close()
		if g.Name() == "" {
			g.SetName(*store)
		}
		graphs = []*histwalk.Graph{g}
	case *edges != "":
		f, err := os.Open(*edges)
		if err != nil {
			fail(err)
		}
		g, _, err := histwalk.ReadEdgeList(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		g.SetName(*edges)
		graphs = []*histwalk.Graph{g}
	case *datasetName != "":
		g := buildScaled(*datasetName, *n, *seed)
		if g == nil {
			fail(fmt.Errorf("unknown dataset %q", *datasetName))
		}
		graphs = []*histwalk.Graph{g}
	default:
		if *n > 0 {
			graphs = []*histwalk.Graph{
				dataset.FacebookEgo2(*seed),
				dataset.GooglePlusN(*n, *seed),
				dataset.YelpN(*n, *seed),
				dataset.YoutubeN(*n, *seed),
				dataset.ClusteredGraph(),
				dataset.BarbellGraph(100),
			}
		} else {
			graphs = histwalk.AllDatasets(*seed)
		}
	}
	if err := experiment.DatasetTable(graphs).Render(os.Stdout); err != nil {
		fail(err)
	}
}

func buildScaled(name string, n int, seed int64) *histwalk.Graph {
	if n > 0 {
		switch name {
		case "gplus":
			return dataset.GooglePlusN(n, seed)
		case "yelp":
			return dataset.YelpN(n, seed)
		case "youtube":
			return dataset.YoutubeN(n, seed)
		}
	}
	return histwalk.DatasetByName(name, seed)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphstat:", err)
	os.Exit(1)
}
