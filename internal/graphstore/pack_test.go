package graphstore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"histwalk/internal/graph"
)

// packToBytes runs Pack over the edge-list text and returns the output
// file's bytes.
func packToBytes(t *testing.T, text string, opts PackOptions) ([]byte, *PackStats) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "p.hwg")
	stats, err := Pack(strings.NewReader(text), out, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b, stats
}

// heapToBytes loads the same text through the in-memory path
// (ReadEdgeList → WriteFile) and returns the file's bytes.
func heapToBytes(t *testing.T, text, name string, attrs map[string]string) []byte {
	t.Helper()
	g, _, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	g.SetName(name)
	for aname, atext := range attrs {
		vals, err := graph.ReadAttr(strings.NewReader(atext), g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetAttr(aname, vals); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(t.TempDir(), "h.hwg")
	if err := WriteFile(out, g); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const messyEdgeList = `# comment line
% another comment style

5 100
100 5
7 5 extra-field ignored
7 7
0 5
100	7
3 3
0 100
`

// TestPackMatchesHeapWriter pins the central converter contract: the
// streamed external-sort path produces a byte-identical file to the
// in-memory load-and-write path, across duplicate arcs (both orders),
// self-loops, non-dense IDs, comments and blank lines.
func TestPackMatchesHeapWriter(t *testing.T) {
	want := heapToBytes(t, messyEdgeList, "messy", nil)
	got, stats := packToBytes(t, messyEdgeList, PackOptions{Name: "messy"})
	if !bytes.Equal(got, want) {
		t.Fatal("Pack output differs from ReadEdgeList+WriteFile output")
	}
	if stats.NumNodes != 5 || stats.NumSelfLoops != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestPackTinyChunks forces many spill runs through the k-way merge.
func TestPackTinyChunks(t *testing.T) {
	var sb strings.Builder
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", rng.Intn(300), rng.Intn(300))
	}
	text := sb.String()
	want := heapToBytes(t, text, "", nil)
	got, stats := packToBytes(t, text, PackOptions{ChunkArcs: 64})
	if !bytes.Equal(got, want) {
		t.Fatal("multi-run Pack output differs from heap writer output")
	}
	if stats.Runs < 10 {
		t.Fatalf("expected many spill runs with ChunkArcs=64, got %d", stats.Runs)
	}
}

// TestPackGzipInput checks the magic-byte sniffing: a gzip-compressed
// edge list packs to the same bytes as the plain text.
func TestPackGzipInput(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write([]byte(messyEdgeList)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	want := heapToBytes(t, messyEdgeList, "", nil)
	out := filepath.Join(t.TempDir(), "gz.hwg")
	if _, err := Pack(&gz, out, PackOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gzip input packs to different bytes than plain text")
	}
}

// TestPackAttrs checks attribute attachment matches SetAttr+WriteFile.
func TestPackAttrs(t *testing.T) {
	edges := "0 1\n1 2\n2 0\n"
	attr := "0 3.5\n1 -1\n2 42\n"
	want := heapToBytes(t, edges, "tri", map[string]string{"score": attr})
	out := filepath.Join(t.TempDir(), "a.hwg")
	_, err := Pack(strings.NewReader(edges), out, PackOptions{
		Name:  "tri",
		Attrs: map[string]io.Reader{"score": strings.NewReader(attr)},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Pack with attrs differs from SetAttr+WriteFile")
	}
	m, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if v, ok := m.AttrValue("score", 2); !ok || v != 42 {
		t.Fatalf("AttrValue(score, 2) = %v, %v", v, ok)
	}
}

func TestPackRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"negative-id", "0 1\n-3 2\n"},
		{"one-field", "0 1\n17\n"},
		{"non-integer", "0 1\nfoo bar\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "bad.hwg")
			if _, err := Pack(strings.NewReader(tc.text), out, PackOptions{}); err == nil {
				t.Fatal("Pack accepted malformed input")
			}
			if _, err := os.Stat(out); err == nil {
				t.Fatal("Pack left a partial output file behind")
			}
			// The heap path must agree that the input is malformed.
			if _, _, err := graph.ReadEdgeList(strings.NewReader(tc.text)); err == nil {
				t.Fatal("ReadEdgeList accepted input Pack rejected")
			}
		})
	}
}

// FuzzPackRoundTrip fuzzes the whole store path on edge-list text:
// Pack and the heap writer must agree byte-for-byte whenever the text
// parses (and agree that it doesn't otherwise), and the mmap view of
// the packed file must read back the heap graph exactly.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add(messyEdgeList)
	f.Add("0 1\n1 2\n")
	f.Add("")
	f.Add("# only a comment\n")
	f.Add("7 7\n7 7\n")
	f.Add("1000000 0\n")
	f.Fuzz(func(t *testing.T, text string) {
		g, _, herr := graph.ReadEdgeList(strings.NewReader(text))
		out := filepath.Join(t.TempDir(), "f.hwg")
		_, perr := Pack(strings.NewReader(text), out, PackOptions{ChunkArcs: 32})
		if (herr == nil) != (perr == nil) {
			t.Fatalf("parser disagreement: heap err %v, pack err %v", herr, perr)
		}
		if herr != nil {
			return
		}
		heapOut := filepath.Join(t.TempDir(), "fh.hwg")
		if err := WriteFile(heapOut, g); err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := os.ReadFile(heapOut)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, hb) {
			t.Fatal("Pack and heap writer disagree on bytes")
		}
		m, err := Open(out)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := VerifyFile(out); err != nil {
			t.Fatal(err)
		}
		compareStores(t, g, m)
	})
}
