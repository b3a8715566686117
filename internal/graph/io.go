package graph

// Plain-text edge-list and attribute I/O. The format matches the SNAP
// edge-list convention used by the paper's public benchmark datasets
// ("1684.edges" etc.): one "u v" pair per line, '#' or '%' comments,
// arbitrary non-dense node IDs. Attributes use "node value" lines.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Decompressed wraps r so gzip-compressed streams are read
// transparently: it sniffs the two-byte gzip magic (0x1f 0x8b) and
// returns a gzip reader when present, the buffered original otherwise.
// SNAP dataset downloads ship as .txt.gz, so the edge-list and
// attribute loaders (and the graphpack converter built on them) accept
// them directly without a separate gunzip step.
func Decompressed(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil {
		// A stream shorter than two bytes cannot be gzip; pass it
		// through and let the caller's parser handle it (or EOF).
		return br, nil
	}
	if magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graph: gzip: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// ScanEdgeList reads the edge-list dialect every loader here shares and
// calls fn with each "u v" pair in file order: lines starting with '#'
// or '%' and blank lines are skipped, fields past the second are
// ignored, and IDs must be non-negative integers. Gzip-compressed input
// is detected by magic bytes and inflated transparently. It stops at
// the first malformed line, naming it, or at fn's first error.
func ScanEdgeList(r io.Reader, fn func(u, v int64) error) error {
	dr, err := Decompressed(r)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(dr)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("graph: edge list line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: edge list line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: edge list line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return fmt.Errorf("graph: edge list line %d: negative node ID", lineNo)
		}
		if err := fn(u, v); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: reading edge list: %w", err)
	}
	return nil
}

// readPairs scans an edge list into its pairs and the dense relabeling
// of their IDs, in ascending order of original ID. The distinct node
// count must fit graph.Node (int32): larger inputs fail with a clear
// error rather than silently truncating the relabeling, which would
// fold distinct nodes — and therefore distinct walk-history edge keys —
// onto each other.
func readPairs(r io.Reader) ([][2]int64, map[int64]Node, error) {
	var pairs [][2]int64
	ids := make(map[int64]struct{})
	err := ScanEdgeList(r, func(u, v int64) error {
		pairs = append(pairs, [2]int64{u, v})
		ids[u] = struct{}{}
		ids[v] = struct{}{}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if int64(len(ids)) > int64(math.MaxInt32) {
		return nil, nil, fmt.Errorf("graph: edge list has %d distinct nodes, more than graph.Node (int32) can address", len(ids))
	}
	sorted := make([]int64, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	slices.Sort(sorted)
	remap := make(map[int64]Node, len(sorted))
	for i, id := range sorted {
		remap[id] = Node(i)
	}
	return pairs, remap, nil
}

// ReadEdgeList parses an undirected edge list from r (ScanEdgeList's
// dialect, gzip included). Node IDs may be arbitrary non-negative
// integers; they are densely relabeled in ascending order of original
// ID. The returned map gives original ID → dense Node. Self-loop lines
// ("v v") are preserved under the loop-stored-once CSR convention, so
// NumEdges matches the file's distinct edge count; duplicate lines are
// still dropped.
func ReadEdgeList(r io.Reader) (*Graph, map[int64]Node, error) {
	pairs, remap, err := readPairs(r)
	if err != nil {
		return nil, nil, err
	}
	b := NewBuilder(len(remap))
	b.AllowSelfLoops()
	for _, p := range pairs {
		b.AddEdge(remap[p[0]], remap[p[1]])
	}
	return b.Build(), remap, nil
}

// WriteEdgeList writes g as "u v" lines (u < v), one undirected edge per
// line, preceded by a comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# histwalk edge list: %s nodes=%d edges=%d\n",
		g.Name(), g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var writeErr error
	g.Edges(func(u, v Node) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// ReadAttr parses "node value" lines into an attribute vector for a graph
// with n nodes (dense IDs). Missing nodes default to 0. Comment and blank
// lines are skipped. Gzip-compressed input is detected by magic bytes
// and inflated transparently.
func ReadAttr(r io.Reader, n int) ([]float64, error) {
	dr, err := Decompressed(r)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	sc := bufio.NewScanner(dr)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: attribute line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		v, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: attribute line %d: %v", lineNo, err)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("graph: attribute line %d: node %d out of range [0,%d)", lineNo, v, n)
		}
		x, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("graph: attribute line %d: %v", lineNo, err)
		}
		out[v] = x
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading attributes: %w", err)
	}
	return out, nil
}

// WriteAttr writes an attribute vector as "node value" lines.
func WriteAttr(w io.Writer, name string, values []float64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# histwalk attribute: %s\n", name); err != nil {
		return err
	}
	for v, x := range values {
		if _, err := fmt.Fprintf(bw, "%d %g\n", v, x); err != nil {
			return err
		}
	}
	return bw.Flush()
}
