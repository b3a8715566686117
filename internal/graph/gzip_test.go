package graph

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
)

func gzipped(t *testing.T, text string) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(text)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestReadEdgeListGzip(t *testing.T) {
	text := "0 1\n1 2\n2 0\n"
	plain, _, err := ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fromGz, _, err := ReadEdgeList(gzipped(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if fromGz.NumNodes() != plain.NumNodes() || fromGz.NumEdges() != plain.NumEdges() {
		t.Fatalf("gzip parse: %d nodes %d edges, plain: %d nodes %d edges",
			fromGz.NumNodes(), fromGz.NumEdges(), plain.NumNodes(), plain.NumEdges())
	}
	for v := 0; v < plain.NumNodes(); v++ {
		a, b := plain.Neighbors(Node(v)), fromGz.Neighbors(Node(v))
		if len(a) != len(b) {
			t.Fatalf("node %d: rows differ", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: rows differ at %d", v, i)
			}
		}
	}
}

// TestReadDirectedEdgeListGzip: an arc list is read by the same
// scanner as an edge list, so a gzipped one parses like its plain text.
func TestReadDirectedEdgeListGzip(t *testing.T) {
	text := "# arcs\n10 20\n20 10\n10 30\n"
	plain, _, err := ReadDirectedEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fromGz, remap, err := ReadDirectedEdgeList(gzipped(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if fromGz.NumNodes() != plain.NumNodes() || fromGz.NumArcs() != plain.NumArcs() || len(remap) != 3 {
		t.Fatalf("gzip parse: %d nodes %d arcs, plain: %d nodes %d arcs",
			fromGz.NumNodes(), fromGz.NumArcs(), plain.NumNodes(), plain.NumArcs())
	}
	for v := 0; v < plain.NumNodes(); v++ {
		a, b := plain.OutNeighbors(Node(v)), fromGz.OutNeighbors(Node(v))
		if len(a) != len(b) {
			t.Fatalf("node %d: out-rows differ", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: out-rows differ at %d", v, i)
			}
		}
	}
}

func TestReadAttrGzip(t *testing.T) {
	text := "0 1.5\n1 2\n2 -3\n"
	plain, err := ReadAttr(strings.NewReader(text), 3)
	if err != nil {
		t.Fatal(err)
	}
	fromGz, err := ReadAttr(gzipped(t, text), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(fromGz) {
		t.Fatalf("lengths %d vs %d", len(plain), len(fromGz))
	}
	for i := range plain {
		if plain[i] != fromGz[i] {
			t.Fatalf("attr[%d]: %v vs %v", i, plain[i], fromGz[i])
		}
	}
}

func TestDecompressedPassThrough(t *testing.T) {
	// Plain text must come through byte-for-byte.
	r, err := Decompressed(strings.NewReader("hello\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(r)
	if err != nil || string(b) != "hello\n" {
		t.Fatalf("pass-through read %q, %v", b, err)
	}
	// Streams shorter than the two sniff bytes pass through too.
	for _, short := range []string{"", "x"} {
		r, err := Decompressed(strings.NewReader(short))
		if err != nil {
			t.Fatalf("%q: %v", short, err)
		}
		if b, _ := io.ReadAll(r); string(b) != short {
			t.Fatalf("short stream %q read back as %q", short, b)
		}
	}
	// A truncated gzip stream fails at read time, not sniff time.
	gz := gzipped(t, "0 1\n")
	trunc := gz.Bytes()[:3]
	if _, err := Decompressed(bytes.NewReader(trunc)); err == nil {
		// gzip.NewReader reads the full header; 3 bytes cannot carry it.
		t.Fatal("want an error for a truncated gzip header")
	}
}
