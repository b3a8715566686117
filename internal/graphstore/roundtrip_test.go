package graphstore

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"histwalk/internal/graph"
)

// randomGraph builds a seeded random graph with optional self-loops
// and two attribute vectors.
func randomGraph(t *testing.T, seed int64, n, m int, loops bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if loops {
		b.AllowSelfLoops()
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
	}
	g := b.Build()
	g.SetName("random-test")
	if err := g.SetAttr("degree", g.DegreeAttr()); err != nil {
		t.Fatal(err)
	}
	age := make([]float64, g.NumNodes())
	for i := range age {
		age[i] = float64(rng.Intn(80))
	}
	if err := g.SetAttr("age", age); err != nil {
		t.Fatal(err)
	}
	return g
}

// compareStores fails the test unless a and b are identical graphs.
func compareStores(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.Name() != b.Name() {
		t.Fatalf("Name: %q vs %q", a.Name(), b.Name())
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.NumSelfLoops() != b.NumSelfLoops() {
		t.Fatalf("counts: (%d,%d,%d) vs (%d,%d,%d)",
			a.NumNodes(), a.NumEdges(), a.NumSelfLoops(), b.NumNodes(), b.NumEdges(), b.NumSelfLoops())
	}
	for v := 0; v < a.NumNodes(); v++ {
		ra, rb := a.Neighbors(graph.Node(v)), b.Neighbors(graph.Node(v))
		if len(ra) != len(rb) {
			t.Fatalf("node %d: row lengths %d vs %d", v, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("node %d: row[%d] = %d vs %d", v, i, ra[i], rb[i])
			}
		}
	}
	na, nb := a.AttrNames(), b.AttrNames()
	if len(na) != len(nb) {
		t.Fatalf("attr names: %v vs %v", na, nb)
	}
	for i, name := range na {
		if nb[i] != name {
			t.Fatalf("attr names: %v vs %v", na, nb)
		}
		va, _ := a.Attr(name)
		vb, ok := b.Attr(name)
		if !ok || len(va) != len(vb) {
			t.Fatalf("attr %q: lengths %d vs %d (ok=%v)", name, len(va), len(vb), ok)
		}
		for j := range va {
			if va[j] != vb[j] {
				t.Fatalf("attr %q[%d]: %v vs %v", name, j, va[j], vb[j])
			}
		}
	}
}

// writeTemp writes g to a fresh .hwg file under t.TempDir.
func writeTemp(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.hwg")
	if err := WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n, m  int
		loops bool
	}{
		{"small", 50, 200, false},
		{"loops", 80, 400, true},
		{"sparse", 500, 300, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(t, 42, tc.n, tc.m, tc.loops)
			path := writeTemp(t, g)
			m, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			compareStores(t, g, m)
			if err := VerifyFile(path); err != nil {
				t.Fatalf("VerifyFile: %v", err)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestRoundTripEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	path := writeTemp(t, g)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NumNodes() != 0 || m.NumEdges() != 0 {
		t.Fatalf("empty graph read back as %d nodes, %d edges", m.NumNodes(), m.NumEdges())
	}
	if err := VerifyFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	g := randomGraph(t, 7, 100, 500, true)
	p1, p2 := writeTemp(t, g), writeTemp(t, g)
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("two writes of the same store differ")
	}
}

// TestWriteMappedStore checks Write over the mmap backend itself:
// heap → file → mmap → file must reproduce the bytes.
func TestWriteMappedStore(t *testing.T) {
	g := randomGraph(t, 11, 60, 250, true)
	p1 := writeTemp(t, g)
	m, err := Open(p1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p2 := filepath.Join(t.TempDir(), "copy.hwg")
	if err := WriteFile(p2, m); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Fatal("mmap → write does not reproduce the original bytes")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	g := randomGraph(t, 3, 40, 160, false)

	mutate := func(t *testing.T, f func(b []byte) []byte) (string, error) {
		t.Helper()
		path := writeTemp(t, g)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(b), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(path)
		return path, err
	}

	t.Run("truncated-below-header", func(t *testing.T) {
		if _, err := mutate(t, func(b []byte) []byte { return b[:100] }); err == nil {
			t.Fatal("Open accepted a 100-byte file")
		}
	})
	t.Run("truncated-sections", func(t *testing.T) {
		_, err := mutate(t, func(b []byte) []byte { return b[:len(b)-pageSize] })
		if err == nil {
			t.Fatal("Open accepted a truncated file")
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("want *FormatError, got %T: %v", err, err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		_, err := mutate(t, func(b []byte) []byte { b[0] ^= 0xff; return b })
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want bad-magic error, got %v", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		_, err := mutate(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[hdrVersionOff:], 99)
			return b
		})
		// The version check fires before the header CRC check would.
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("corrupted-header-field", func(t *testing.T) {
		_, err := mutate(t, func(b []byte) []byte { b[hdrNumNodesOff] ^= 0x01; return b })
		if err == nil || !strings.Contains(err.Error(), "header checksum") {
			t.Fatalf("want header-checksum error, got %v", err)
		}
	})
	t.Run("flags-unknown", func(t *testing.T) {
		_, err := mutate(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[hdrFlagsOff:], 1)
			binary.LittleEndian.PutUint32(b[hdrHeaderCRCOff:], 0)
			binary.LittleEndian.PutUint32(b[hdrHeaderCRCOff:], headerCRC(b))
			return b
		})
		if err == nil || !strings.Contains(err.Error(), "flags") {
			t.Fatalf("want flags error, got %v", err)
		}
	})
}

func TestVerifyCatchesBitFlips(t *testing.T) {
	g := randomGraph(t, 5, 40, 160, false)
	path := writeTemp(t, g)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the targets section. Open's O(1)
	// validation cannot see it; the checksum pass must.
	m0, err := mapPath(path)
	if err != nil {
		t.Fatal(err)
	}
	off := m0.hdr.targetsOff + 2*m0.hdr.numTargets
	m0.close()
	b[off] ^= 0x04
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(path)
	if err != nil {
		t.Fatalf("Open should accept the file (header intact): %v", err)
	}
	g2.Close()
	m, err := mapPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	if err := m.verifyChecksums(); err == nil || !strings.Contains(err.Error(), "targets checksum") {
		t.Fatalf("want targets-checksum error, got %v", err)
	}
	if err := VerifyFile(path); err == nil {
		t.Fatal("VerifyFile accepted a bit-flipped file")
	}
}

// TestVerifyCatchesStructuralViolations: an adopted adjacency whose
// rows are unsorted and asymmetric passes AdoptCSR's O(1) shape checks,
// and the writer happily serializes it (checksums cover the bytes as
// written), so the verifier's structural pass is what must reject the
// file.
func TestVerifyCatchesStructuralViolations(t *testing.T) {
	bad, err := graph.AdoptCSR("bad", []int64{0, 2, 4}, []graph.Node{1, 0, 1, 0}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.hwg")
	if err := WriteFile(path, bad); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatalf("Open should accept the file (header and checksums valid): %v", err)
	}
	g.Close()
	m, err := mapPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.verifyChecksums(); err != nil {
		t.Fatalf("checksums should be valid: %v", err)
	}
	m.close()
	err = VerifyFile(path)
	if err == nil || !(strings.Contains(err.Error(), "sorted") || strings.Contains(err.Error(), "asymmetric")) {
		t.Fatalf("want a CSR invariant violation, got %v", err)
	}
}

// TestViewFallbacks pins that the unaligned/copy decode paths agree
// with the zero-copy reinterpretation.
func TestViewFallbacks(t *testing.T) {
	raw := make([]byte, 64)
	rng := rand.New(rand.NewSource(9))
	for i := range raw {
		raw[i] = byte(rng.Intn(256))
	}
	aligned := make([]byte, 48) // make() of >= 8 bytes is 8-aligned in practice
	copy(aligned, raw[:48])
	unaligned := raw[1:49] // odd offset: forces the copy-decode path

	a64, u64 := viewInt64(aligned), viewInt64(unaligned)
	for i := range a64 {
		want := int64(binary.LittleEndian.Uint64(aligned[8*i:]))
		if a64[i] != want {
			t.Fatalf("aligned viewInt64[%d] = %d, want %d", i, a64[i], want)
		}
		wantU := int64(binary.LittleEndian.Uint64(unaligned[8*i:]))
		if u64[i] != wantU {
			t.Fatalf("unaligned viewInt64[%d] = %d, want %d", i, u64[i], wantU)
		}
	}
	an, un := viewNodes(aligned), viewNodes(unaligned)
	if len(an) != 12 || len(un) != 12 {
		t.Fatalf("viewNodes lengths %d, %d", len(an), len(un))
	}
	for i := range an {
		if want := graph.Node(binary.LittleEndian.Uint32(aligned[4*i:])); an[i] != want {
			t.Fatalf("aligned viewNodes[%d] = %d, want %d", i, an[i], want)
		}
	}
	if got := len(viewFloat64(aligned)); got != 6 {
		t.Fatalf("viewFloat64 length %d", got)
	}
	if viewInt64(nil) != nil || viewNodes(nil) != nil || viewFloat64(nil) != nil {
		t.Fatal("empty views should be nil")
	}
}

func TestCloseIdempotent(t *testing.T) {
	g := randomGraph(t, 2, 10, 20, false)
	m, err := Open(writeTemp(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNameTooLong(t *testing.T) {
	g := randomGraph(t, 2, 10, 20, false)
	g.SetName(strings.Repeat("x", maxNameLen+1))
	if err := WriteFile(filepath.Join(t.TempDir(), "n.hwg"), g); err == nil {
		t.Fatal("writer accepted an oversized dataset name")
	}
}
