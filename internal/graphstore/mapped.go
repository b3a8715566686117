package graphstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
	"unsafe"

	"histwalk/internal/graph"
)

// hostLittleEndian reports whether this machine stores multi-byte
// integers little-endian — when true (amd64, arm64, riscv64, wasm, …)
// the on-disk arrays can be reinterpreted in place; otherwise Open
// falls back to decoding copies so the Store contract still holds.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Mapped is the mmap-backed Store over a .hwg file. Neighbor rows are
// served zero-copy straight out of the page-cache mapping, so resident
// heap stays a few kilobytes regardless of graph size and the OS pages
// adjacency in on demand — exactly the access pattern of the paper's
// walkers, which read one neighborhood row per step.
//
// A Mapped is safe for concurrent readers (the mapping is PROT_READ
// and never written). Slices returned by Neighbors and Attr alias the
// mapping and become invalid after Close.
type Mapped struct {
	path      string
	hdr       *header
	data      []byte       // the whole file
	unmap     func() error // nil when data is a heap copy
	offsets   []int64      // len numNodes+1; view into data when possible
	targets   []graph.Node // len numTargets; view into data when possible
	attrs     map[string][]float64
	attrNames []string // sorted

	closeOnce sync.Once
	closeErr  error
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

// Open maps the .hwg file at path and returns a Store over it. It
// validates the header (magic, version, checksum, section bounds) and
// the attribute directory in O(1 + #attrs) — it does NOT recompute
// section checksums or CSR invariants; use Verify (or VerifyFile) for
// the full pass. The caller must Close the store to release the
// mapping.
func Open(path string) (*Mapped, error) {
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
	m, err := newMapped(path, data, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return m, nil
}

// newMapped builds the typed views over an already-mapped (or copied)
// file image.
func newMapped(path string, data []byte, unmap func() error) (*Mapped, error) {
	hdr, err := decodeHeader(data[:headerSize], int64(len(data)))
	if err != nil {
		return nil, err
	}
	m := &Mapped{
		path:  path,
		hdr:   hdr,
		data:  data,
		unmap: unmap,
	}
	m.offsets = viewInt64(data[hdr.offsetsOff : hdr.offsetsOff+8*(hdr.numNodes+1)])
	m.targets = viewNodes(data[hdr.targetsOff : hdr.targetsOff+4*hdr.numTargets])
	if err := m.loadAttrDir(); err != nil {
		return nil, err
	}
	return m, nil
}

// loadAttrDir parses the attribute directory and builds zero-copy
// views over the attribute arrays.
func (m *Mapped) loadAttrDir() error {
	m.attrs = make(map[string][]float64)
	h := m.hdr
	if h.attrDirOff == 0 {
		return nil
	}
	dir := m.data[h.attrDirOff:]
	if len(dir) < 4 {
		return formatErrf("attribute directory truncated")
	}
	count := binary.LittleEndian.Uint32(dir)
	pos := int64(4)
	prev := ""
	for i := uint32(0); i < count; i++ {
		if int64(len(dir)) < pos+4 {
			return formatErrf("attribute directory truncated at entry %d", i)
		}
		nameLen := int64(binary.LittleEndian.Uint32(dir[pos:]))
		pos += 4
		if nameLen > int64(len(dir))-pos-8 {
			return formatErrf("attribute directory truncated at entry %d", i)
		}
		name := string(dir[pos : pos+nameLen])
		pos += nameLen
		arrayOff := int64(binary.LittleEndian.Uint64(dir[pos:]))
		pos += 8
		if i > 0 && name <= prev {
			return formatErrf("attribute directory not sorted: %q after %q", name, prev)
		}
		prev = name
		arrayLen := 8 * h.numNodes
		if arrayOff%pageSize != 0 || arrayOff < h.attrDirOff || arrayOff+arrayLen > h.fileSize {
			return formatErrf("attribute %q array at %d out of bounds", name, arrayOff)
		}
		m.attrs[name] = viewFloat64(m.data[arrayOff : arrayOff+arrayLen])
		m.attrNames = append(m.attrNames, name)
	}
	return nil
}

// Close releases the mapping. It is idempotent; every Neighbors/Attr
// slice handed out before Close is invalid afterwards.
func (m *Mapped) Close() error {
	m.closeOnce.Do(func() {
		if m.unmap != nil {
			m.closeErr = m.unmap()
		}
		m.data, m.offsets, m.targets, m.attrs, m.attrNames = nil, nil, nil, nil, nil
	})
	return m.closeErr
}

// Path returns the file the store was opened from.
func (m *Mapped) Path() string { return m.path }

// Name returns the dataset name recorded in the header.
func (m *Mapped) Name() string { return m.hdr.name }

// NumNodes returns |V|.
func (m *Mapped) NumNodes() int { return int(m.hdr.numNodes) }

// NumEdges returns |E| under the loop-stored-once convention:
// (numTargets + numLoops) / 2.
func (m *Mapped) NumEdges() int { return int((m.hdr.numTargets + m.hdr.numLoops) / 2) }

// NumSelfLoops returns the number of self-loops (stored once each).
func (m *Mapped) NumSelfLoops() int { return int(m.hdr.numLoops) }

// Degree returns k_v = |N(v)|.
func (m *Mapped) Degree(v graph.Node) int {
	return int(m.offsets[v+1] - m.offsets[v])
}

// Neighbors returns v's sorted neighbor row, aliasing the mapping.
// The slice is stable for the store's lifetime and must not be
// modified.
func (m *Mapped) Neighbors(v graph.Node) []graph.Node {
	return m.targets[m.offsets[v]:m.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (m *Mapped) HasEdge(u, v graph.Node) bool {
	ns := m.Neighbors(u)
	i := searchNodes(ns, v)
	return i < len(ns) && ns[i] == v
}

// Attr returns the named attribute vector (aliasing the mapping) and
// whether it exists.
func (m *Mapped) Attr(name string) ([]float64, bool) {
	vs, ok := m.attrs[name]
	return vs, ok
}

// AttrValue returns node v's value of the named attribute.
func (m *Mapped) AttrValue(name string, v graph.Node) (float64, bool) {
	vs, ok := m.attrs[name]
	if !ok {
		return 0, false
	}
	return vs[v], true
}

// AttrNames returns the sorted registered attribute names.
func (m *Mapped) AttrNames() []string { return m.attrNames }

// Graph wraps the mapping in a *graph.Graph view via AdoptCSR — same
// arrays, zero copies — so tooling written against the concrete graph
// type (stats, experiment tables) works on a mapped store. The view
// shares the mapping's lifetime: using it after Close is invalid.
func (m *Mapped) Graph() (*graph.Graph, error) {
	g, err := graph.AdoptCSR(m.hdr.name, m.offsets, m.targets, int(m.hdr.numLoops))
	if err != nil {
		return nil, err
	}
	for _, name := range m.attrNames {
		if err := g.SetAttr(name, m.attrs[name]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// VerifyChecksums recomputes the section checksums over the mapped
// bytes and compares them with the header's. O(fileSize).
func (m *Mapped) VerifyChecksums() error {
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

// Verify runs the full integrity pass over the open store: section
// checksums, offsets monotone from 0 to numTargets, then the CSR
// invariants shared with the heap backend (in-range targets, strictly
// sorted rows, symmetric arcs, loop accounting, attribute lengths).
func (m *Mapped) Verify() error {
	if err := m.VerifyChecksums(); err != nil {
		return err
	}
	if m.offsets[0] != 0 {
		return formatErrf("offsets[0] = %d, want 0", m.offsets[0])
	}
	for v := int64(1); v <= m.hdr.numNodes; v++ {
		if m.offsets[v] < m.offsets[v-1] {
			return formatErrf("offsets not monotone at index %d", v)
		}
	}
	if end := m.offsets[m.hdr.numNodes]; end != m.hdr.numTargets {
		return formatErrf("offsets end at %d but header promises %d targets", end, m.hdr.numTargets)
	}
	return Validate(m)
}

// VerifyFile opens, fully verifies and closes the .hwg file at path.
// It is the library half of `graphpack verify`.
func VerifyFile(path string) error {
	m, err := Open(path)
	if err != nil {
		return err
	}
	defer m.Close()
	return m.Verify()
}
