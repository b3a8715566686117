package graphstore

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"

	"histwalk/internal/graph"
)

// PackOptions configures the streaming edge-list → .hwg converter.
type PackOptions struct {
	// Name is the dataset name recorded in the header.
	Name string
	// ChunkArcs bounds the in-memory sort buffer: at most this many
	// symmetrized arcs (16 bytes each) are held before a sorted run is
	// spilled to disk. Default 4Mi arcs ≈ 64 MiB. This — not the edge
	// count — is the converter's memory high-water mark, plus O(|V|)
	// for the ID table.
	ChunkArcs int
	// TmpDir is where spill runs go ("" = the system temp dir).
	TmpDir string
	// Attrs maps attribute names to "node value" readers in DENSE node
	// ID space (the same convention as graph.ReadAttr and the files
	// graphgen emits); gzip input is sniffed. Attribute vectors are
	// O(|V|) and held in memory.
	Attrs map[string]io.Reader
}

// PackStats reports what a Pack run did.
type PackStats struct {
	NumNodes     int   // distinct node IDs
	NumEdges     int   // distinct undirected edges (loops count once)
	NumSelfLoops int   // distinct self-loop lines
	NumTargets   int64 // CSR slots written = 2·edges − loops
	LinesRead    int64 // edge lines parsed (before dedup)
	Runs         int   // sorted runs spilled to disk
}

const defaultChunkArcs = 4 << 20

// arc is one directed half of an undirected edge, in original ID space.
type arc struct{ u, v int64 }

// Pack streams an edge list (same dialect as graph.ReadEdgeList:
// "u v" lines, '#'/'%' comments, arbitrary non-negative IDs, duplicate
// lines dropped, self-loops kept once, gzip sniffed) into a .hwg file
// at out, in bounded memory: edges are symmetrized into arcs, sorted
// in ChunkArcs-sized chunks spilled as runs, then k-way merged with
// global dedup. Because every node appears as an arc source after
// symmetrization, the merged stream's ascending distinct sources ARE
// the node ID table, and the dense relabeling (ascending original ID,
// exactly ReadEdgeList's) is monotone — so remapped rows stay sorted
// and the output is byte-identical to WriteFile(ReadEdgeList(input))
// with the same name and attributes.
func Pack(edges io.Reader, out string, opts PackOptions) (*PackStats, error) {
	chunk := opts.ChunkArcs
	if chunk <= 0 {
		chunk = defaultChunkArcs
	}
	tmp, err := os.MkdirTemp(opts.TmpDir, "graphpack-*")
	if err != nil {
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	defer os.RemoveAll(tmp)

	stats := &PackStats{}
	runs, err := spillRuns(edges, tmp, chunk, stats)
	if err != nil {
		return nil, err
	}

	// Merge pass 1: node ID table, per-node degrees, loop count.
	var ids []int64
	var degrees []int64
	var loops int64
	err = mergeArcs(runs, func(a arc) error {
		if len(ids) == 0 || ids[len(ids)-1] != a.u {
			if int64(len(ids)) >= int64(math.MaxInt32) {
				return formatErrf("edge list has more than %d distinct nodes (graph.Node is int32)", math.MaxInt32)
			}
			ids = append(ids, a.u)
			degrees = append(degrees, 0)
		}
		degrees[len(degrees)-1]++
		if a.u == a.v {
			loops++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	offsets := make([]int64, len(ids)+1)
	for i, d := range degrees {
		offsets[i+1] = offsets[i] + d
	}
	stats.NumNodes = len(ids)
	stats.NumSelfLoops = int(loops)
	stats.NumTargets = offsets[len(ids)]
	stats.NumEdges = int((stats.NumTargets + loops) / 2)

	attrs, err := readPackAttrs(opts.Attrs, len(ids))
	if err != nil {
		return nil, err
	}

	// Merge pass 2: re-merge the same runs, remap each target to its
	// dense ID by binary search in the table, and stream the rows into
	// the writer. The remap is monotone, so rows remain sorted.
	f, err := os.Create(out)
	if err != nil {
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	stream := func(emit func(graph.Node) error) error {
		return mergeArcs(runs, func(a arc) error {
			dv, ok := slices.BinarySearch(ids, a.v)
			if !ok {
				return formatErrf("internal: target %d missing from node table", a.v)
			}
			return emit(graph.Node(dv))
		})
	}
	if err := writeCSR(f, opts.Name, offsets, loops, stream, attrs); err != nil {
		f.Close()
		os.Remove(out)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	return stats, nil
}

// readPackAttrs parses the attribute readers (sorted by name, the
// directory order the writer requires).
func readPackAttrs(in map[string]io.Reader, n int) ([]namedAttr, error) {
	if len(in) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(in))
	for name := range in {
		names = append(names, name)
	}
	sort.Strings(names)
	attrs := make([]namedAttr, 0, len(names))
	for _, name := range names {
		vals, err := graph.ReadAttr(in[name], n)
		if err != nil {
			return nil, fmt.Errorf("graphstore: attribute %q: %w", name, err)
		}
		attrs = append(attrs, namedAttr{name: name, vals: vals})
	}
	return attrs, nil
}

// spillRuns scans the edge list with graph.ScanEdgeList, the parser of
// graph.ReadEdgeList, so the two loaders accept and reject the same
// inputs; it symmetrizes each edge into arcs and spills sorted
// deduplicated chunks as run files.
func spillRuns(edges io.Reader, tmp string, chunkArcs int, stats *PackStats) ([]string, error) {
	buf := make([]arc, 0, min(chunkArcs, 1<<20))
	var runs []string
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		path := filepath.Join(tmp, "run-"+strconv.Itoa(len(runs)))
		if err := writeRun(path, buf); err != nil {
			return err
		}
		runs = append(runs, path)
		buf = buf[:0]
		return nil
	}
	err := graph.ScanEdgeList(edges, func(u, v int64) error {
		stats.LinesRead++
		buf = append(buf, arc{u, v})
		if u != v {
			buf = append(buf, arc{v, u})
		}
		if len(buf) >= chunkArcs {
			return flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	stats.Runs = len(runs)
	return runs, nil
}

// writeRun sorts and locally dedups one chunk, then writes it as
// 16-byte little-endian records.
func writeRun(path string, buf []arc) error {
	slices.SortFunc(buf, func(a, b arc) int {
		if a.u != b.u {
			if a.u < b.u {
				return -1
			}
			return 1
		}
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var rec [16]byte
	prev := arc{-1, -1}
	for _, a := range buf {
		if a == prev {
			continue
		}
		prev = a
		binary.LittleEndian.PutUint64(rec[:8], uint64(a.u))
		binary.LittleEndian.PutUint64(rec[8:], uint64(a.v))
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close()
			return fmt.Errorf("graphstore: spilling run: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("graphstore: %w", err)
	}
	return f.Close()
}

// runReader streams one spilled run.
type runReader struct {
	f   *os.File
	br  *bufio.Reader
	cur arc
	eof bool
}

func (r *runReader) next() error {
	var rec [16]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		if err == io.EOF {
			r.eof = true
			return nil
		}
		return fmt.Errorf("graphstore: reading run: %w", err)
	}
	r.cur = arc{int64(binary.LittleEndian.Uint64(rec[:8])), int64(binary.LittleEndian.Uint64(rec[8:]))}
	return nil
}

// arcHeap is a min-heap of run readers ordered by current arc; ties
// cannot survive dedup but are broken deterministically anyway.
type arcHeap []*runReader

func (h arcHeap) Len() int { return len(h) }
func (h arcHeap) Less(i, j int) bool {
	a, b := h[i].cur, h[j].cur
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}
func (h arcHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arcHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *arcHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// mergeArcs k-way merges the sorted runs with global deduplication and
// calls emit once per distinct arc, in ascending (u, v) order.
func mergeArcs(runs []string, emit func(arc) error) error {
	h := make(arcHeap, 0, len(runs))
	defer func() {
		for _, r := range h {
			r.f.Close()
		}
	}()
	for _, path := range runs {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("graphstore: %w", err)
		}
		r := &runReader{f: f, br: bufio.NewReaderSize(f, 1<<20)}
		if err := r.next(); err != nil {
			return err
		}
		if r.eof {
			f.Close()
			continue
		}
		h = append(h, r)
	}
	heap.Init(&h)
	prev := arc{-1, -1}
	for h.Len() > 0 {
		r := h[0]
		if r.cur != prev {
			prev = r.cur
			if err := emit(r.cur); err != nil {
				return err
			}
		}
		if err := r.next(); err != nil {
			return err
		}
		if r.eof {
			r.f.Close()
			heap.Pop(&h)
			// Drop the closed reader from the deferred close set.
			continue
		}
		heap.Fix(&h, 0)
	}
	return nil
}
