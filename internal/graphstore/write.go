package graphstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"histwalk/internal/graph"
)

// crcWriter counts and checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// padTo writes zeros until the absolute file position reaches target.
func padTo(w io.Writer, pos, target int64) (int64, error) {
	var zeros [pageSize]byte
	for pos < target {
		chunk := target - pos
		if chunk > pageSize {
			chunk = pageSize
		}
		n, err := w.Write(zeros[:chunk])
		pos += int64(n)
		if err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// namedAttr pairs an attribute name with its dense vector for writing.
type namedAttr struct {
	name string
	vals []float64
}

// targetStream yields the concatenated CSR rows in order; it is called
// with a consumer that must receive exactly numTargets nodes.
type targetStream func(emit func(graph.Node) error) error

// writeCSR assembles a .hwg file on f from streamed parts: the offsets
// array, a target stream of offsets[n] nodes, and optional attribute
// vectors. The header is written last (over a placeholder page) so the
// section checksums cover exactly the bytes on disk; an interrupted
// write therefore never carries a valid header. The attribute list
// must be sorted by name.
func writeCSR(f io.WriteSeeker, name string, offsets []int64, loops int64, targets targetStream, attrs []namedAttr) error {
	if len(offsets) == 0 {
		return formatErrf("writer needs offsets of length numNodes+1, got 0")
	}
	numNodes := int64(len(offsets) - 1)
	numTargets := offsets[numNodes]
	h := &header{
		name:       name,
		numNodes:   numNodes,
		numTargets: numTargets,
		numLoops:   loops,
		offsetsOff: headerSize,
	}
	h.targetsOff = alignPage(h.offsetsOff + 8*(numNodes+1))

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	// Header placeholder: all zeros (an invalid magic until the end).
	pos, err := padTo(bw, 0, headerSize)
	if err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}

	// Offsets section.
	cw := &crcWriter{w: bw}
	var scratch [8]byte
	for _, o := range offsets {
		binary.LittleEndian.PutUint64(scratch[:], uint64(o))
		if _, err := cw.Write(scratch[:]); err != nil {
			return fmt.Errorf("graphstore: writing offsets: %w", err)
		}
	}
	h.offsetsCRC = cw.crc
	pos += cw.n
	if pos, err = padTo(bw, pos, h.targetsOff); err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}

	// Targets section, streamed.
	cw = &crcWriter{w: bw}
	emit := func(v graph.Node) error {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(v))
		_, err := cw.Write(scratch[:4])
		return err
	}
	if err := targets(emit); err != nil {
		return fmt.Errorf("graphstore: writing targets: %w", err)
	}
	if cw.n != 4*numTargets {
		return formatErrf("target stream produced %d bytes, offsets promise %d", cw.n, 4*numTargets)
	}
	h.targetsCRC = cw.crc
	pos += cw.n

	// Attribute region: directory page, then page-aligned arrays. The
	// attrsCRC covers every byte from attrDirOff to EOF, padding
	// included, so it is computed over one continuous crcWriter.
	if len(attrs) > 0 {
		h.attrDirOff = alignPage(pos)
		if pos, err = padTo(bw, pos, h.attrDirOff); err != nil {
			return fmt.Errorf("graphstore: %w", err)
		}
		// Directory layout first, to know where arrays land.
		dirLen := int64(4)
		for _, a := range attrs {
			dirLen += 4 + int64(len(a.name)) + 8
		}
		arrayOff := alignPage(h.attrDirOff + dirLen)
		cw = &crcWriter{w: bw}
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(attrs)))
		if _, err := cw.Write(scratch[:4]); err != nil {
			return fmt.Errorf("graphstore: writing attribute directory: %w", err)
		}
		for _, a := range attrs {
			if int64(len(a.vals)) != numNodes {
				return formatErrf("attribute %q has %d values, want %d", a.name, len(a.vals), numNodes)
			}
			binary.LittleEndian.PutUint32(scratch[:4], uint32(len(a.name)))
			if _, err := cw.Write(scratch[:4]); err != nil {
				return fmt.Errorf("graphstore: writing attribute directory: %w", err)
			}
			if _, err := io.WriteString(cw, a.name); err != nil {
				return fmt.Errorf("graphstore: writing attribute directory: %w", err)
			}
			binary.LittleEndian.PutUint64(scratch[:], uint64(arrayOff))
			if _, err := cw.Write(scratch[:]); err != nil {
				return fmt.Errorf("graphstore: writing attribute directory: %w", err)
			}
			arrayOff = alignPage(arrayOff + 8*numNodes)
		}
		dirEnd := h.attrDirOff + cw.n
		if _, err = padTo(cw, dirEnd, alignPage(dirEnd)); err != nil {
			return fmt.Errorf("graphstore: %w", err)
		}
		for _, a := range attrs {
			for _, x := range a.vals {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(x))
				if _, err := cw.Write(scratch[:]); err != nil {
					return fmt.Errorf("graphstore: writing attribute %q: %w", a.name, err)
				}
			}
			end := h.attrDirOff + cw.n
			if _, err = padTo(cw, end, alignPage(end)); err != nil {
				return fmt.Errorf("graphstore: %w", err)
			}
		}
		h.attrsCRC = cw.crc
		pos = h.attrDirOff + cw.n
	}

	h.fileSize = pos
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}
	// Patch the real header in over the placeholder, last.
	page, err := h.encode()
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}
	if _, err := f.Write(page); err != nil {
		return fmt.Errorf("graphstore: writing header: %w", err)
	}
	return nil
}

// Write serializes g to f in the versioned binary CSR format, whether
// g lives on the heap or in a mapped file. Attributes are written in
// sorted name order, so the output bytes are a pure function of the
// graph's contents.
func Write(f io.WriteSeeker, g *graph.Graph) error {
	n := g.NumNodes()
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int64(g.Degree(graph.Node(v)))
	}
	stream := func(emit func(graph.Node) error) error {
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(graph.Node(v)) {
				if err := emit(u); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var attrs []namedAttr
	for _, name := range g.AttrNames() { // AttrNames is sorted
		vals, _ := g.Attr(name)
		attrs = append(attrs, namedAttr{name: name, vals: vals})
	}
	return writeCSR(f, g.Name(), offsets, int64(g.NumSelfLoops()), stream, attrs)
}

// WriteFile serializes g to a new .hwg file at path, fsyncing before
// rename-free close so a crash never leaves a silently-valid header
// over torn sections (the header is written last either way).
func WriteFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}
	if err := Write(f, g); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("graphstore: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}
	return nil
}
