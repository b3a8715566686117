// Package graphstore is the out-of-core graph storage layer: a
// versioned binary CSR file format (".hwg"), its writers (Write for a
// graph in hand, Pack for a text edge list of any size, in bounded
// memory) and its reader. Open maps a file and returns an ordinary
// *graph.Graph adopting the mapped arrays (graph.AdoptCSR), so neighbor
// rows are served zero-copy out of the page cache with resident heap
// independent of graph size, and everything that walks a graph walks
// a packed one unchanged.
//
// # File format (version 1)
//
// A .hwg file is the graph package's CSR shape written verbatim as
// little-endian flat arrays behind a fixed 4 KiB header, every section
// page-aligned so the arrays can be reinterpreted in place from a
// page-aligned memory mapping:
//
//	[0,    4096) header page
//	  [0:4)    magic "HWG1"
//	  [4:8)    format version (uint32, currently 1)
//	  [8:16)   feature flags (uint64, reserved, must be 0)
//	  [16:24)  numNodes   (int64; must fit graph.Node = int32)
//	  [24:32)  numTargets (int64; len(targets), i.e. 2|E| - loops)
//	  [32:40)  numLoops   (int64; self-loops, stored once each)
//	  [40:48)  offsetsOff (int64; always 4096 in v1)
//	  [48:56)  targetsOff (int64; page-aligned)
//	  [56:64)  attrDirOff (int64; 0 = no attributes)
//	  [64:72)  fileSize   (int64; total bytes, truncation detector)
//	  [72:76)  offsetsCRC (uint32; CRC-32C of the offsets bytes)
//	  [76:80)  targetsCRC (uint32; CRC-32C of the targets bytes)
//	  [80:84)  attrsCRC   (uint32; CRC-32C of [attrDirOff, fileSize))
//	  [84:88)  headerCRC  (uint32; CRC-32C of this page with the
//	           field itself zeroed — computed last, checked first)
//	  [88:92)  nameLen (uint32) followed by the dataset name bytes;
//	           zero padding to 4096
//	[offsetsOff, +8·(numNodes+1))  offsets[] as int64 LE
//	[targetsOff, +4·numTargets)    targets[] as int32 LE (graph.Node)
//	[attrDirOff, fileSize)         optional attribute directory:
//	  count (uint32), then per attribute (in sorted name order):
//	  nameLen (uint32), name bytes, arrayOff (int64, 8-aligned in
//	  the directory, page-aligned target); each array is
//	  numNodes × float64 LE
//
// Sections are zero-padded up to the next page boundary; the padding
// is covered by no section checksum except the attribute region's
// trailing pad (attrsCRC spans the whole tail by construction).
//
// The self-loop convention is the graph package's loop-stored-once
// rule from the access model: a loop at v occupies one slot in v's
// row, Degree counts it once, and NumEdges = (numTargets+numLoops)/2.
//
// Open validates the header (magic, version, checksum, section
// bounds) and the attribute directory in O(1 + #attrs); VerifyFile
// additionally recomputes the section checksums and then runs
// graph.Graph.Validate over the mapped graph (monotone offsets,
// strictly sorted rows, symmetric arcs, loop accounting).
package graphstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// Magic identifies a .hwg graph store file.
	Magic = "HWG1"
	// FormatVersion is the current file format version.
	FormatVersion = 1
	// Ext is the conventional file extension.
	Ext = ".hwg"

	// pageSize is the section alignment; matches the smallest common
	// OS page so mapped sections are naturally aligned for int64 views.
	pageSize = 4096
	// headerSize is the fixed header page length.
	headerSize = pageSize
)

// Header field offsets within the header page.
const (
	hdrMagicOff      = 0
	hdrVersionOff    = 4
	hdrFlagsOff      = 8
	hdrNumNodesOff   = 16
	hdrNumTargetsOff = 24
	hdrNumLoopsOff   = 32
	hdrOffsetsOff    = 40
	hdrTargetsOff    = 48
	hdrAttrDirOff    = 56
	hdrFileSizeOff   = 64
	hdrOffsetsCRCOff = 72
	hdrTargetsCRCOff = 76
	hdrAttrsCRCOff   = 80
	hdrHeaderCRCOff  = 84
	hdrNameLenOff    = 88
	hdrNameOff       = 92

	maxNameLen = headerSize - hdrNameOff
)

// castagnoli is the CRC-32C table used by every checksum in the file.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFormat wraps every header/structure rejection so callers can
// distinguish "not a (valid) graph store" from I/O failures.
type FormatError struct{ msg string }

func (e *FormatError) Error() string { return "graphstore: " + e.msg }

func formatErrf(format string, args ...any) error {
	return &FormatError{msg: fmt.Sprintf(format, args...)}
}

// header is the decoded header page.
type header struct {
	flags      uint64
	numNodes   int64
	numTargets int64
	numLoops   int64
	offsetsOff int64
	targetsOff int64
	attrDirOff int64
	fileSize   int64
	offsetsCRC uint32
	targetsCRC uint32
	attrsCRC   uint32
	name       string
}

// alignPage rounds n up to the next page boundary.
func alignPage(n int64) int64 {
	return (n + pageSize - 1) &^ (pageSize - 1)
}

// encode renders the header page, computing headerCRC last.
func (h *header) encode() ([]byte, error) {
	if len(h.name) > maxNameLen {
		return nil, formatErrf("dataset name %d bytes long, max %d", len(h.name), maxNameLen)
	}
	buf := make([]byte, headerSize)
	copy(buf[hdrMagicOff:], Magic)
	binary.LittleEndian.PutUint32(buf[hdrVersionOff:], FormatVersion)
	binary.LittleEndian.PutUint64(buf[hdrFlagsOff:], h.flags)
	binary.LittleEndian.PutUint64(buf[hdrNumNodesOff:], uint64(h.numNodes))
	binary.LittleEndian.PutUint64(buf[hdrNumTargetsOff:], uint64(h.numTargets))
	binary.LittleEndian.PutUint64(buf[hdrNumLoopsOff:], uint64(h.numLoops))
	binary.LittleEndian.PutUint64(buf[hdrOffsetsOff:], uint64(h.offsetsOff))
	binary.LittleEndian.PutUint64(buf[hdrTargetsOff:], uint64(h.targetsOff))
	binary.LittleEndian.PutUint64(buf[hdrAttrDirOff:], uint64(h.attrDirOff))
	binary.LittleEndian.PutUint64(buf[hdrFileSizeOff:], uint64(h.fileSize))
	binary.LittleEndian.PutUint32(buf[hdrOffsetsCRCOff:], h.offsetsCRC)
	binary.LittleEndian.PutUint32(buf[hdrTargetsCRCOff:], h.targetsCRC)
	binary.LittleEndian.PutUint32(buf[hdrAttrsCRCOff:], h.attrsCRC)
	binary.LittleEndian.PutUint32(buf[hdrNameLenOff:], uint32(len(h.name)))
	copy(buf[hdrNameOff:], h.name)
	binary.LittleEndian.PutUint32(buf[hdrHeaderCRCOff:], headerCRC(buf))
	return buf, nil
}

// headerCRC computes the header checksum over the page with the CRC
// field treated as zero, without copying the page.
func headerCRC(page []byte) uint32 {
	var zero [4]byte
	crc := crc32.Update(0, castagnoli, page[:hdrHeaderCRCOff])
	crc = crc32.Update(crc, castagnoli, zero[:])
	return crc32.Update(crc, castagnoli, page[hdrHeaderCRCOff+4:headerSize])
}

// decodeHeader parses and validates the header page against the actual
// file size. It checks everything that can be checked in O(1): magic,
// version, header checksum, count ranges and section bounds.
func decodeHeader(page []byte, fileSize int64) (*header, error) {
	if len(page) < headerSize {
		return nil, formatErrf("file is %d bytes, smaller than the %d-byte header", len(page), headerSize)
	}
	if string(page[hdrMagicOff:hdrMagicOff+4]) != Magic {
		return nil, formatErrf("bad magic %q (not a %s graph store)", page[hdrMagicOff:hdrMagicOff+4], Ext)
	}
	if v := binary.LittleEndian.Uint32(page[hdrVersionOff:]); v != FormatVersion {
		return nil, formatErrf("unsupported format version %d (this build reads version %d)", v, FormatVersion)
	}
	if got, want := binary.LittleEndian.Uint32(page[hdrHeaderCRCOff:]), headerCRC(page); got != want {
		return nil, formatErrf("header checksum mismatch: stored %08x, computed %08x", got, want)
	}
	h := &header{
		flags:      binary.LittleEndian.Uint64(page[hdrFlagsOff:]),
		numNodes:   int64(binary.LittleEndian.Uint64(page[hdrNumNodesOff:])),
		numTargets: int64(binary.LittleEndian.Uint64(page[hdrNumTargetsOff:])),
		numLoops:   int64(binary.LittleEndian.Uint64(page[hdrNumLoopsOff:])),
		offsetsOff: int64(binary.LittleEndian.Uint64(page[hdrOffsetsOff:])),
		targetsOff: int64(binary.LittleEndian.Uint64(page[hdrTargetsOff:])),
		attrDirOff: int64(binary.LittleEndian.Uint64(page[hdrAttrDirOff:])),
		fileSize:   int64(binary.LittleEndian.Uint64(page[hdrFileSizeOff:])),
		offsetsCRC: binary.LittleEndian.Uint32(page[hdrOffsetsCRCOff:]),
		targetsCRC: binary.LittleEndian.Uint32(page[hdrTargetsCRCOff:]),
		attrsCRC:   binary.LittleEndian.Uint32(page[hdrAttrsCRCOff:]),
	}
	if h.flags != 0 {
		return nil, formatErrf("unknown feature flags %#x (this build understands none)", h.flags)
	}
	nameLen := binary.LittleEndian.Uint32(page[hdrNameLenOff:])
	if nameLen > maxNameLen {
		return nil, formatErrf("name length %d exceeds the header page", nameLen)
	}
	h.name = string(page[hdrNameOff : hdrNameOff+int(nameLen)])
	if h.numNodes < 0 || h.numNodes > math.MaxInt32 {
		return nil, formatErrf("node count %d outside [0, %d] (graph.Node is int32)", h.numNodes, math.MaxInt32)
	}
	if h.numTargets < 0 || h.numLoops < 0 || h.numLoops > h.numTargets {
		return nil, formatErrf("inconsistent counts: %d targets, %d self-loops", h.numTargets, h.numLoops)
	}
	if h.fileSize != fileSize {
		return nil, formatErrf("header records %d bytes but the file has %d (truncated or grown)", h.fileSize, fileSize)
	}
	offsetsLen := 8 * (h.numNodes + 1)
	targetsLen := 4 * h.numTargets
	if h.offsetsOff != headerSize {
		return nil, formatErrf("offsets section at %d, want %d", h.offsetsOff, headerSize)
	}
	if h.targetsOff%pageSize != 0 || h.targetsOff < h.offsetsOff+offsetsLen {
		return nil, formatErrf("targets section at %d overlaps offsets or is unaligned", h.targetsOff)
	}
	dataEnd := h.targetsOff + targetsLen
	if h.attrDirOff != 0 {
		if h.attrDirOff%pageSize != 0 || h.attrDirOff < dataEnd {
			return nil, formatErrf("attribute directory at %d overlaps targets or is unaligned", h.attrDirOff)
		}
		dataEnd = h.attrDirOff
	}
	if dataEnd > fileSize {
		return nil, formatErrf("sections extend to %d beyond the %d-byte file (truncated)", dataEnd, fileSize)
	}
	return h, nil
}
