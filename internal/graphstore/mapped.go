package graphstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"unsafe"

	"histwalk/internal/graph"
)

// hostLittleEndian reports whether this machine stores multi-byte
// integers little-endian — when true (amd64, arm64, riscv64, wasm, …)
// the on-disk arrays can be reinterpreted in place; otherwise Open
// falls back to decoding copies, which serve the same rows.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mapping is one opened .hwg file: its bytes (a read-only page-cache
// mapping on unix) and its decoded header.
type mapping struct {
	hdr   *header
	data  []byte       // the whole file
	unmap func() error // nil when data is a heap copy
}

// viewInt64 reinterprets b (len%8 == 0) as []int64 when the host is
// little-endian and b is 8-byte aligned (page-aligned sections in a
// page-aligned mapping always are); otherwise it decodes a copy.
func viewInt64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// viewNodes reinterprets b (len%4 == 0) as []graph.Node, with the same
// alignment/endianness fallback as viewInt64.
func viewNodes(b []byte) []graph.Node {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*graph.Node)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]graph.Node, len(b)/4)
	for i := range out {
		out[i] = graph.Node(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// viewFloat64 reinterprets b (len%8 == 0) as []float64, with the same
// alignment/endianness fallback as viewInt64.
func viewFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Open maps the .hwg file at path and returns the graph it holds: a
// *graph.Graph adopting the mapped CSR and attribute arrays with zero
// copies, so neighbor rows are served straight out of the page cache
// and resident heap stays a few kilobytes regardless of graph size. It
// validates the header (magic, version, checksum, section bounds) and
// the attribute directory in O(1 + #attrs) — it does NOT scan the
// offsets, recompute section checksums or check CSR invariants; use
// VerifyFile for the full pass. Slices the graph hands out alias the
// mapping; Close the graph to release it.
func Open(path string) (*graph.Graph, error) {
	m, err := mapPath(path)
	if err != nil {
		return nil, err
	}
	g, err := m.graph()
	if err != nil {
		m.close()
		return nil, err
	}
	return g, nil
}

// mapPath maps the file at path and decodes its header.
func mapPath(path string) (*mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	size := fi.Size()
	if size < headerSize {
		return nil, formatErrf("file is %d bytes, smaller than the %d-byte header", size, headerSize)
	}
	data, unmap, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("graphstore: mapping %s: %w", path, err)
	}
	m := &mapping{data: data, unmap: unmap}
	if m.hdr, err = decodeHeader(data[:headerSize], size); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// close releases the mapping.
func (m *mapping) close() error {
	if m.unmap == nil {
		return nil
	}
	return m.unmap()
}

// graph adopts the mapped CSR arrays and the attribute arrays named in
// the attribute directory as a *graph.Graph whose Close unmaps.
func (m *mapping) graph() (*graph.Graph, error) {
	h := m.hdr
	offsets := viewInt64(m.data[h.offsetsOff : h.offsetsOff+8*(h.numNodes+1)])
	targets := viewNodes(m.data[h.targetsOff : h.targetsOff+4*h.numTargets])
	g, err := graph.AdoptCSR(h.name, offsets, targets, int(h.numLoops), m.close)
	if err != nil {
		return nil, formatErrf("%v", err)
	}
	if h.attrDirOff == 0 {
		return g, nil
	}
	dir := m.data[h.attrDirOff:]
	if len(dir) < 4 {
		return nil, formatErrf("attribute directory truncated")
	}
	count := binary.LittleEndian.Uint32(dir)
	pos := int64(4)
	prev := ""
	for i := uint32(0); i < count; i++ {
		if int64(len(dir)) < pos+4 {
			return nil, formatErrf("attribute directory truncated at entry %d", i)
		}
		nameLen := int64(binary.LittleEndian.Uint32(dir[pos:]))
		pos += 4
		if nameLen > int64(len(dir))-pos-8 {
			return nil, formatErrf("attribute directory truncated at entry %d", i)
		}
		name := string(dir[pos : pos+nameLen])
		pos += nameLen
		arrayOff := int64(binary.LittleEndian.Uint64(dir[pos:]))
		pos += 8
		if i > 0 && name <= prev {
			return nil, formatErrf("attribute directory not sorted: %q after %q", name, prev)
		}
		prev = name
		arrayLen := 8 * h.numNodes
		if arrayOff%pageSize != 0 || arrayOff < h.attrDirOff || arrayOff+arrayLen > h.fileSize {
			return nil, formatErrf("attribute %q array at %d out of bounds", name, arrayOff)
		}
		if err := g.SetAttr(name, viewFloat64(m.data[arrayOff:arrayOff+arrayLen])); err != nil {
			return nil, formatErrf("%v", err)
		}
	}
	return g, nil
}

// verifyChecksums recomputes the section checksums over the mapped
// bytes and compares them with the header's. O(fileSize).
func (m *mapping) verifyChecksums() error {
	h := m.hdr
	if crc := crc32.Checksum(m.data[h.offsetsOff:h.offsetsOff+8*(h.numNodes+1)], castagnoli); crc != h.offsetsCRC {
		return formatErrf("offsets checksum mismatch: stored %08x, computed %08x", h.offsetsCRC, crc)
	}
	if crc := crc32.Checksum(m.data[h.targetsOff:h.targetsOff+4*h.numTargets], castagnoli); crc != h.targetsCRC {
		return formatErrf("targets checksum mismatch: stored %08x, computed %08x", h.targetsCRC, crc)
	}
	if h.attrDirOff != 0 {
		if crc := crc32.Checksum(m.data[h.attrDirOff:h.fileSize], castagnoli); crc != h.attrsCRC {
			return formatErrf("attributes checksum mismatch: stored %08x, computed %08x", h.attrsCRC, crc)
		}
	}
	return nil
}

// VerifyFile is the full integrity pass over the .hwg file at path: the
// header, the section checksums, then every CSR invariant
// graph.Graph.Validate checks (monotone offsets, in-range targets,
// strictly sorted rows, symmetric arcs, loop accounting, attribute
// lengths). It is the library half of `graphpack verify`.
func VerifyFile(path string) error {
	m, err := mapPath(path)
	if err != nil {
		return err
	}
	defer m.close()
	if err := m.verifyChecksums(); err != nil {
		return err
	}
	g, err := m.graph()
	if err != nil {
		return err
	}
	return g.Validate()
}
