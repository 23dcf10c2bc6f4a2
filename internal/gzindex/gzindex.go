// Package gzindex implements the seek-point database of the paper
// (§1.3 "Index for Seeking", §3.3): for each chunk start it stores the
// compressed bit offset, the decompressed byte offset and the preceding
// 32 KiB window, enabling constant-time seeking and window-primed
// (single-stage) decompression. Indexes can be exported and imported so
// later runs skip the initial decompression pass, like indexed_gzip's
// .gzi files; the on-disk format here is this package's own versioned
// binary layout with flate-compressed windows.
package gzindex

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// SeekPoint marks a position where decompression can resume.
type SeekPoint struct {
	// CompressedBitOffset is the exact bit offset of a Deflate block
	// header (canonicalised for stored blocks) or of a gzip member
	// header (flagged by AtMemberStart).
	CompressedBitOffset uint64
	// UncompressedOffset is the decompressed position of this point.
	UncompressedOffset uint64
	// AtMemberStart marks points that sit on a gzip member boundary
	// (e.g. BGZF members), where decoding must begin with header parsing
	// and an empty window.
	AtMemberStart bool
}

// MemberEnd marks a gzip member ending inside the span of a seek
// point: the decompressed offset relative to the point and the CRC32
// the member's footer declares. Persisting these with the index keeps
// full member-checksum verification available after an import, without
// first re-learning the member boundaries from decodes.
type MemberEnd struct {
	RelEnd uint64
	CRC32  uint32
}

// Fingerprint identifies the source file an index was built for beyond
// its length: CRC32s of the file's first and last FingerprintSpan
// bytes. Together with CompressedSize it rejects an import whose index
// belongs to a different file of identical size — which would
// otherwise decode garbage from the recorded offsets.
type Fingerprint struct {
	Head uint32 // CRC32 (IEEE) of the first min(FingerprintSpan, size) bytes
	Tail uint32 // CRC32 (IEEE) of the last min(FingerprintSpan, size) bytes
}

// FingerprintSpan is the number of bytes hashed at each end of the
// source file. It is part of the on-disk format: changing it would make
// every stored fingerprint mismatch its file.
const FingerprintSpan = 4 << 10

// ComputeFingerprint hashes the head and tail of a source file. The two
// spans overlap for files shorter than 2*FingerprintSpan; that is fine,
// the comparison just needs determinism.
func ComputeFingerprint(r io.ReaderAt, size int64) (Fingerprint, error) {
	span := int64(FingerprintSpan)
	if span > size {
		span = size
	}
	read := func(off int64) (uint32, error) {
		buf := make([]byte, span)
		n, err := r.ReadAt(buf, off)
		if int64(n) < span {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("gzindex: fingerprinting source: %w", err)
		}
		return crc32.ChecksumIEEE(buf), nil
	}
	head, err := read(0)
	if err != nil {
		return Fingerprint{}, err
	}
	tail, err := read(size - span)
	if err != nil {
		return Fingerprint{}, err
	}
	return Fingerprint{Head: head, Tail: tail}, nil
}

// CheckSource reports whether ix may be imported for a source of size
// bytes whose fingerprint is fp: the index must be finalized and record
// the same compressed size and, when it carries one (v3 and later), the
// same fingerprint — which rejects an index built for a different file
// of identical length.
func (ix *Index) CheckSource(size int64, fp Fingerprint) error {
	if !ix.Finalized {
		return errors.New("gzindex: can only import finalized indexes")
	}
	if ix.CompressedSize != uint64(size) {
		return fmt.Errorf("gzindex: index is for a %d-byte file, have %d bytes", ix.CompressedSize, size)
	}
	if ix.SourceFP != nil && *ix.SourceFP != fp {
		return fmt.Errorf("gzindex: index fingerprint %08x/%08x does not match the open file's %08x/%08x (index built for a different file of the same size)",
			ix.SourceFP.Head, ix.SourceFP.Tail, fp.Head, fp.Tail)
	}
	return nil
}

// Checkpoint is one span of a per-format checkpoint table (the
// non-gzip analogue of a SeekPoint): a compressed byte extent that
// decodes independently, and the decompressed extent it produces.
// Decompressed extents are contiguous from 0; the compressed side may
// have gaps (zstd skippable frames).
type Checkpoint struct {
	CompOff, CompEnd      int64
	DecompOff, DecompSize int64
}

// CheckpointTable is the optional per-format section of a version-4
// index: the complete span table of a bzip2/LZ4/zstd file, persisted
// so a reopen can skip the sizing pass entirely (the ROADMAP follow-up
// from the format-agnostic-API and zstd PRs).
type CheckpointTable struct {
	// Format is the owning codec's 4-byte tag ("bz2 ", "lz4 ", "zstd").
	Format string
	// Flags carries codec-specific capability bits (checksummed, block
	// independence, metadata-sized, ...), opaque to this package.
	Flags uint8
	// Spans is the checkpoint table in stream order.
	Spans []Checkpoint
}

// Index is the seek-point database. It is not goroutine-safe; the chunk
// fetcher serialises access.
type Index struct {
	points     []SeekPoint
	windows    map[uint64][]byte      // keyed by CompressedBitOffset
	memberEnds map[uint64][]MemberEnd // keyed by CompressedBitOffset

	// Checkpoints is the optional per-format checkpoint-table section
	// (version 4); nil for gzip/BGZF seek-point indexes.
	Checkpoints *CheckpointTable

	// Finalized is set once the whole file has been scanned, making
	// sizes authoritative.
	Finalized        bool
	CompressedSize   uint64 // bytes
	UncompressedSize uint64
	ChunkSize        int // compressed chunk size used during creation
	// MemberMarksComplete asserts that every member boundary in the
	// file is recorded via AddMemberEnd — i.e. the absence of marks for
	// a point means "no member ends there", not "unknown".
	MemberMarksComplete bool
	// SourceFP is the source-file fingerprint, or nil when unknown
	// (indexes read from the fingerprint-less v1/v2 formats).
	SourceFP *Fingerprint
}

// New returns an empty index.
func New(chunkSize int) *Index {
	return &Index{
		windows:    map[uint64][]byte{},
		memberEnds: map[uint64][]MemberEnd{},
		ChunkSize:  chunkSize,
	}
}

// Add appends a seek point; points must be added in stream order.
// window is the decompressed data preceding the point (nil for member
// starts, up to 32 KiB otherwise).
func (ix *Index) Add(p SeekPoint, window []byte) error {
	if n := len(ix.points); n > 0 {
		last := ix.points[n-1]
		if p.UncompressedOffset < last.UncompressedOffset ||
			p.CompressedBitOffset <= last.CompressedBitOffset {
			return fmt.Errorf("gzindex: out-of-order seek point %+v after %+v", p, last)
		}
	}
	ix.points = append(ix.points, p)
	if window != nil {
		ix.windows[p.CompressedBitOffset] = window
	}
	return nil
}

// Len returns the number of seek points.
func (ix *Index) Len() int { return len(ix.points) }

// Point returns the i-th seek point.
func (ix *Index) Point(i int) SeekPoint { return ix.points[i] }

// Window returns the stored window for a compressed offset.
func (ix *Index) Window(compressedBitOffset uint64) ([]byte, bool) {
	w, ok := ix.windows[compressedBitOffset]
	return w, ok
}

// AddMemberEnd records a member boundary within the seek point at the
// given compressed offset. Marks must be added in increasing RelEnd
// order per point.
func (ix *Index) AddMemberEnd(compressedBitOffset uint64, m MemberEnd) {
	ix.memberEnds[compressedBitOffset] = append(ix.memberEnds[compressedBitOffset], m)
}

// MemberEnds returns the member boundaries recorded for a seek point.
func (ix *Index) MemberEnds(compressedBitOffset uint64) []MemberEnd {
	return ix.memberEnds[compressedBitOffset]
}

// Find returns the index of the last seek point whose uncompressed
// offset is <= target, or false when no point qualifies (empty index).
func (ix *Index) Find(target uint64) (int, bool) {
	if len(ix.points) == 0 {
		return 0, false
	}
	// First point with UncompressedOffset > target, minus one.
	i := sort.Search(len(ix.points), func(i int) bool {
		return ix.points[i].UncompressedOffset > target
	})
	if i == 0 {
		return 0, false
	}
	return i - 1, true
}

// --- serialization -------------------------------------------------------
//
// On-disk layout (version 4, all integers little-endian or unsigned
// LEB128 varints). Version 4 differs from version 3 only in the magic
// and the optional per-format checkpoint-table section (flag bit 3);
// version 3 differs from version 2 only in the magic and the optional
// source fingerprint (flag bit 2):
//
//	offset  size      field
//	0       8         magic "RGZIDX04"
//	8       1         flags (bit 0: finalized, bit 1: member marks
//	                  complete, bit 2: source fingerprint present,
//	                  bit 3: checkpoint table present)
//	9       varint    chunk size used during creation
//	...     varint    compressed file size (bytes)
//	...     varint    uncompressed file size (bytes)
//	...     4+4       head and tail CRC32 of the source file (only when
//	                  flag bit 2 is set)
//	...     varint    number of seek-point records
//	...               seek-point records (see below)
//	...               checkpoint-table section (only when flag bit 3 is
//	                  set, see below)
//	end-4   4         CRC32 (IEEE) of every preceding byte
//
// Each seek-point record is:
//
//	varint    compressed bit offset, delta-coded against the previous
//	          record (absolute for the first record)
//	varint    uncompressed byte offset, delta-coded likewise
//	1         flags (bit 0: at member start, bit 1: window present,
//	          bit 2: member marks present)
//	varint    raw window length        | only when bit 1
//	varint    compressed window length | is set; the window
//	...       flate-compressed window  | bytes follow
//	varint    member mark count                   | only when
//	...       per mark: varint relative offset    | bit 2
//	          (delta-coded within the record)     | is
//	          plus 4 bytes footer CRC32           | set
//
// Seek points are strictly increasing in compressed offset, so the
// deltas are non-negative and small; windows are the bulk of the file
// and flate-compress well (often 3-10x). The trailing CRC32 makes any
// single-byte corruption detectable before an import trusts the data.
//
// The checkpoint-table section (the persisted span table of a
// bzip2/LZ4/zstd file) is:
//
//	4         format tag ("bz2 ", "lz4 ", "zstd")
//	1         codec capability flags (opaque to this package)
//	varint    number of spans
//	per span:
//	varint    compressed gap: span start minus the previous span's end
//	          (absolute offset for the first span; usually 0 — only
//	          zstd skippable frames leave gaps)
//	varint    compressed length of the span
//	varint    decompressed size of the span
//
// Decompressed offsets are not stored: spans are contiguous from 0, so
// each offset is the running sum of the preceding sizes.

const (
	magicV1 = "RGZIDX01" // legacy fixed-width format, still readable
	magicV2 = "RGZIDX02" // fingerprint-less varint format, still readable
	magicV3 = "RGZIDX03" // checkpoint-table-less format, still readable
	magicV4 = "RGZIDX04" // current format, written by WriteTo
)

// maxWindowRaw bounds a stored window. Real windows are at most the
// Deflate history size of 32 KiB; the margin is kept tight because the
// bound is what caps decompression amplification when importing an
// untrusted index (a future format carrying more context would bump
// the version magic anyway).
const maxWindowRaw = 64 << 10

// Serialization errors. All of them (and any io error) abort an import.
var (
	// ErrBadMagic reports that the input is not a rapidgzip index.
	ErrBadMagic = errors.New("gzindex: bad magic (not a rapidgzip index)")
	// ErrUnsupportedVersion reports a magic of a newer, unknown format.
	ErrUnsupportedVersion = errors.New("gzindex: unsupported index version")
	// ErrChecksum reports that the trailing CRC32 does not match.
	ErrChecksum = errors.New("gzindex: index checksum mismatch")
	// ErrCorrupt reports a structurally invalid index.
	ErrCorrupt = errors.New("gzindex: corrupt index")
)

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// WriteTo serialises the index in the version-4 format.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if ix.Checkpoints != nil && len(ix.Checkpoints.Format) != 4 {
		return 0, fmt.Errorf("gzindex: checkpoint table format tag %q is not 4 bytes", ix.Checkpoints.Format)
	}
	var buf bytes.Buffer
	buf.WriteString(magicV4)
	var flags uint8
	if ix.Finalized {
		flags |= 1
	}
	if ix.MemberMarksComplete {
		flags |= 2
	}
	if ix.SourceFP != nil {
		flags |= 4
	}
	if ix.Checkpoints != nil {
		flags |= 8
	}
	buf.WriteByte(flags)
	writeUvarint(&buf, uint64(ix.ChunkSize))
	writeUvarint(&buf, ix.CompressedSize)
	writeUvarint(&buf, ix.UncompressedSize)
	if ix.SourceFP != nil {
		binary.Write(&buf, binary.LittleEndian, ix.SourceFP.Head)
		binary.Write(&buf, binary.LittleEndian, ix.SourceFP.Tail)
	}
	writeUvarint(&buf, uint64(len(ix.points)))
	var prev SeekPoint
	for _, p := range ix.points {
		writeUvarint(&buf, p.CompressedBitOffset-prev.CompressedBitOffset)
		writeUvarint(&buf, p.UncompressedOffset-prev.UncompressedOffset)
		prev = p
		win, hasWin := ix.windows[p.CompressedBitOffset]
		marks := ix.memberEnds[p.CompressedBitOffset]
		var pflags uint8
		if p.AtMemberStart {
			pflags |= 1
		}
		if hasWin {
			pflags |= 2
		}
		if len(marks) > 0 {
			pflags |= 4
		}
		buf.WriteByte(pflags)
		if hasWin {
			comp, err := flateCompress(win)
			if err != nil {
				return 0, err
			}
			writeUvarint(&buf, uint64(len(win)))
			writeUvarint(&buf, uint64(len(comp)))
			buf.Write(comp)
		}
		if len(marks) > 0 {
			writeUvarint(&buf, uint64(len(marks)))
			var prevEnd uint64
			for _, m := range marks {
				writeUvarint(&buf, m.RelEnd-prevEnd)
				prevEnd = m.RelEnd
				binary.Write(&buf, binary.LittleEndian, m.CRC32)
			}
		}
	}
	if ct := ix.Checkpoints; ct != nil {
		buf.WriteString(ct.Format)
		buf.WriteByte(ct.Flags)
		writeUvarint(&buf, uint64(len(ct.Spans)))
		var prevEnd, decomp int64
		for i, s := range ct.Spans {
			// DecompOff is reconstructed as the running size sum on
			// read, so a non-contiguous table must fail here rather
			// than silently round-trip to different extents.
			if s.CompOff < prevEnd || s.CompEnd <= s.CompOff || s.DecompSize < 0 || s.DecompOff != decomp {
				return 0, fmt.Errorf("gzindex: checkpoint span %d is not serialisable: %+v", i, s)
			}
			writeUvarint(&buf, uint64(s.CompOff-prevEnd))
			writeUvarint(&buf, uint64(s.CompEnd-s.CompOff))
			writeUvarint(&buf, uint64(s.DecompSize))
			prevEnd = s.CompEnd
			decomp += s.DecompSize
		}
	}
	binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes()))
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Read deserialises an index written by WriteTo, dispatching on the
// format version named by the magic. The current version's trailing
// CRC32 is verified; any mismatch or structural problem rejects the
// whole index — a partially imported index would silently disable
// seeking into the missing region.
func Read(r io.Reader) (*Index, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	switch string(m[:]) {
	case magicV4:
		return readV234(r, magicV4)
	case magicV3:
		return readV234(r, magicV3)
	case magicV2:
		return readV234(r, magicV2)
	case magicV1:
		return readV1(r)
	}
	if string(m[:6]) == magicV2[:6] {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedVersion, m)
	}
	return nil, ErrBadMagic
}

// ReadFrom replaces the index contents with a serialised index read
// from r, implementing io.ReaderFrom. Byte counting is best-effort (the
// windows are read through a decompressor); the error is what matters.
func (ix *Index) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	read, err := Read(cr)
	if err != nil {
		return cr.n, err
	}
	*ix = *read
	return cr.n, nil
}

// readV234 parses the varint formats. Versions 2, 3 and 4 share the
// whole layout except the optional source fingerprint of v3+ and the
// optional checkpoint-table section of v4.
func readV234(r io.Reader, magic string) (*Index, error) {
	cr := &crcReader{r: r}
	cr.sum = crc32.Update(cr.sum, crc32.IEEETable, []byte(magic))
	flags, _ := cr.ReadByte()
	ix := New(int(cr.uvarint()))
	ix.Finalized = flags&1 != 0
	ix.MemberMarksComplete = flags&2 != 0
	ix.CompressedSize = cr.uvarint()
	ix.UncompressedSize = cr.uvarint()
	if magic != magicV2 && flags&4 != 0 {
		var raw [8]byte
		if err := cr.full(raw[:]); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		ix.SourceFP = &Fingerprint{
			Head: binary.LittleEndian.Uint32(raw[0:4]),
			Tail: binary.LittleEndian.Uint32(raw[4:8]),
		}
	}
	n := cr.uvarint()
	if cr.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, cr.err)
	}
	if n > 1<<40 {
		return nil, fmt.Errorf("%w: implausible point count %d", ErrCorrupt, n)
	}
	var prev SeekPoint
	for i := uint64(0); i < n; i++ {
		var p SeekPoint
		p.CompressedBitOffset = prev.CompressedBitOffset + cr.uvarint()
		p.UncompressedOffset = prev.UncompressedOffset + cr.uvarint()
		pflags, _ := cr.ReadByte()
		p.AtMemberStart = pflags&1 != 0
		var win []byte
		if pflags&2 != 0 {
			rawLen := cr.uvarint()
			compLen := cr.uvarint()
			// The error check must precede the sanity check: a failed
			// uvarint read leaves a huge partial value that would
			// otherwise reach the allocation below.
			if cr.err != nil {
				return nil, fmt.Errorf("%w: %w", ErrCorrupt, cr.err)
			}
			var err error
			if win, err = readWindow(cr.full, rawLen, compLen, i); err != nil {
				return nil, err
			}
		}
		var marks []MemberEnd
		if pflags&4 != 0 {
			mn := cr.uvarint()
			if cr.err != nil {
				return nil, fmt.Errorf("%w: %w", ErrCorrupt, cr.err)
			}
			if mn > 1<<32 {
				return nil, fmt.Errorf("%w: implausible mark count %d at point %d", ErrCorrupt, mn, i)
			}
			var prevEnd uint64
			for j := uint64(0); j < mn; j++ {
				relEnd := prevEnd + cr.uvarint()
				// A wrapping delta would sneak a huge intermediate mark
				// past validate's last-mark span check and blow up the
				// CRC part arithmetic downstream.
				if relEnd < prevEnd {
					return nil, fmt.Errorf("%w: member mark delta wraps at point %d", ErrCorrupt, i)
				}
				prevEnd = relEnd
				var crcRaw [4]byte
				if err := cr.full(crcRaw[:]); err != nil {
					return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
				}
				marks = append(marks, MemberEnd{RelEnd: relEnd, CRC32: binary.LittleEndian.Uint32(crcRaw[:])})
			}
		}
		if cr.err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, cr.err)
		}
		if i > 0 && (p.CompressedBitOffset <= prev.CompressedBitOffset ||
			p.UncompressedOffset < prev.UncompressedOffset) {
			return nil, fmt.Errorf("%w: non-monotonic point %d", ErrCorrupt, i)
		}
		prev = p
		ix.points = append(ix.points, p)
		if win != nil {
			ix.windows[p.CompressedBitOffset] = win
		}
		if marks != nil {
			ix.memberEnds[p.CompressedBitOffset] = marks
		}
	}
	if magic == magicV4 && flags&8 != 0 {
		ct, err := readCheckpointTable(cr)
		if err != nil {
			return nil, err
		}
		ix.Checkpoints = ct
	}
	want := cr.sum // the trailer itself is not part of the checksum
	var trailer [4]byte
	if err := cr.full(trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %w", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != want {
		return nil, ErrChecksum
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// readCheckpointTable parses the per-format span-table section of a
// version-4 index. Spans are reconstructed from (gap, compressed
// length, decompressed size) triples; the decompressed offsets are the
// running sum of the sizes, so they are contiguous by construction.
func readCheckpointTable(cr *crcReader) (*CheckpointTable, error) {
	var tag [4]byte
	if err := cr.full(tag[:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	ct := &CheckpointTable{Format: string(tag[:])}
	ct.Flags, _ = cr.ReadByte()
	n := cr.uvarint()
	if cr.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, cr.err)
	}
	if n > 1<<40 {
		return nil, fmt.Errorf("%w: implausible span count %d", ErrCorrupt, n)
	}
	var compEnd, decomp int64
	for i := uint64(0); i < n; i++ {
		gap := cr.uvarint()
		compLen := cr.uvarint()
		size := cr.uvarint()
		if cr.err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, cr.err)
		}
		// Each field must keep the running offsets inside int64: a
		// forged varint wrapping the accumulator would otherwise slip
		// a negative extent past the span-level checks downstream.
		const maxOff = 1 << 62
		if gap > maxOff || compLen == 0 || compLen > maxOff || size > maxOff ||
			uint64(compEnd)+gap+compLen > maxOff || uint64(decomp)+size > maxOff {
			return nil, fmt.Errorf("%w: checkpoint span %d extents overflow", ErrCorrupt, i)
		}
		s := Checkpoint{
			CompOff:    compEnd + int64(gap),
			DecompOff:  decomp,
			DecompSize: int64(size),
		}
		s.CompEnd = s.CompOff + int64(compLen)
		compEnd = s.CompEnd
		decomp += int64(size)
		ct.Spans = append(ct.Spans, s)
	}
	return ct, nil
}

// validate applies the structural sanity checks shared by both format
// readers: the declared file sizes must bound the seek points (an
// importer derives the final chunk's extent from them by subtraction,
// which must not underflow), and member marks must stay within their
// point's span (they feed the member-CRC part arithmetic, where an
// out-of-span offset would turn into spurious verification results
// instead of a clean import error).
func (ix *Index) validate() error {
	// Monotonicity is structural: an importer derives chunk extents by
	// subtracting adjacent offsets. The v2 reader enforces it per
	// record; checking here covers the checksum-less v1 format too.
	for i := 1; i < len(ix.points); i++ {
		if ix.points[i].CompressedBitOffset <= ix.points[i-1].CompressedBitOffset ||
			ix.points[i].UncompressedOffset < ix.points[i-1].UncompressedOffset {
			return fmt.Errorf("%w: non-monotonic point %d", ErrCorrupt, i)
		}
	}
	if n := len(ix.points); n > 0 && ix.Finalized {
		last := ix.points[n-1]
		if last.UncompressedOffset > ix.UncompressedSize {
			return fmt.Errorf("%w: last point at offset %d exceeds uncompressed size %d",
				ErrCorrupt, last.UncompressedOffset, ix.UncompressedSize)
		}
		if last.CompressedBitOffset >= ix.CompressedSize*8 {
			return fmt.Errorf("%w: last point at bit %d exceeds compressed size %d bytes",
				ErrCorrupt, last.CompressedBitOffset, ix.CompressedSize)
		}
	}
	for i, p := range ix.points {
		marks := ix.memberEnds[p.CompressedBitOffset]
		if len(marks) == 0 {
			continue
		}
		var span uint64
		if i+1 < len(ix.points) {
			span = ix.points[i+1].UncompressedOffset - p.UncompressedOffset
		} else if !ix.Finalized {
			// The last point's span is unknown until the scan completes;
			// rejecting here would make Read refuse WriteTo's own output
			// for an in-progress index.
			continue
		} else {
			// Safe: the finalized-size check above already established
			// UncompressedSize >= the last point's offset.
			span = ix.UncompressedSize - p.UncompressedOffset
		}
		if last := marks[len(marks)-1].RelEnd; last > span {
			return fmt.Errorf("%w: member mark at +%d overruns point %d (span %d)",
				ErrCorrupt, last, i, span)
		}
	}
	if ct := ix.Checkpoints; ct != nil && ix.Finalized {
		// The declared file sizes must bound the span table: an importer
		// slices the compressed source by these extents and trusts the
		// decompressed total as the stream size.
		if n := len(ct.Spans); n > 0 {
			if last := ct.Spans[n-1]; uint64(last.CompEnd) > ix.CompressedSize {
				return fmt.Errorf("%w: checkpoint span ends at byte %d, compressed size is %d",
					ErrCorrupt, last.CompEnd, ix.CompressedSize)
			}
		}
		if len(ix.points) == 0 {
			var total uint64
			for _, s := range ct.Spans {
				total += uint64(s.DecompSize)
			}
			if total != ix.UncompressedSize {
				return fmt.Errorf("%w: checkpoint spans cover %d bytes, uncompressed size is %d",
					ErrCorrupt, total, ix.UncompressedSize)
			}
		}
	}
	return nil
}

// readV1 parses the legacy fixed-width format (no trailing checksum).
func readV1(r io.Reader) (*Index, error) {
	br := bufReader{r: r}
	flags := br.u32()
	ix := New(int(br.u64()))
	ix.Finalized = flags&1 != 0
	ix.CompressedSize = br.u64()
	ix.UncompressedSize = br.u64()
	n := br.u64()
	if br.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, br.err)
	}
	if n > 1<<40 {
		return nil, fmt.Errorf("%w: implausible point count %d", ErrCorrupt, n)
	}
	for i := uint64(0); i < n; i++ {
		var p SeekPoint
		p.CompressedBitOffset = br.u64()
		p.UncompressedOffset = br.u64()
		p.AtMemberStart = br.u8() == 1
		rawLen := br.u32()
		if br.err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, br.err)
		}
		var win []byte
		if rawLen != 0xFFFFFFFF {
			compLen := br.u32()
			if br.err != nil {
				return nil, fmt.Errorf("%w: %w", ErrCorrupt, br.err)
			}
			var err error
			if win, err = readWindow(br.full, uint64(rawLen), uint64(compLen), i); err != nil {
				return nil, err
			}
		}
		ix.points = append(ix.points, p)
		if win != nil {
			ix.windows[p.CompressedBitOffset] = win
		}
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// readWindow bound-checks the declared window lengths and then reads
// and inflates the window through full — the single validation path
// shared by both format readers, so the amplification cap cannot
// silently diverge between them. Lengths must already be known-good
// reads (no pending reader error).
func readWindow(full func([]byte) error, rawLen, compLen, point uint64) ([]byte, error) {
	if rawLen > maxWindowRaw || compLen > rawLen+rawLen/255+64 {
		return nil, fmt.Errorf("%w: window %d/%d bytes at point %d", ErrCorrupt, compLen, rawLen, point)
	}
	comp := make([]byte, compLen)
	if err := full(comp); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	win, err := flateDecompress(comp, int(rawLen))
	if err != nil {
		return nil, fmt.Errorf("%w: window at point %d: %v", ErrCorrupt, point, err)
	}
	return win, nil
}

func flateCompress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, 6)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(data); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func flateDecompress(comp []byte, rawLen int) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(comp))
	defer fr.Close()
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// crcReader reads sequentially while maintaining a running CRC32 of
// every byte it has delivered, so the trailing checksum can be verified
// without buffering the whole index.
type crcReader struct {
	r   io.Reader
	sum uint32
	err error
}

func (c *crcReader) full(p []byte) error {
	if c.err != nil {
		return c.err
	}
	if _, c.err = io.ReadFull(c.r, p); c.err != nil {
		return c.err
	}
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	return nil
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (c *crcReader) ReadByte() (byte, error) {
	var raw [1]byte
	if err := c.full(raw[:]); err != nil {
		return 0, err
	}
	return raw[0], nil
}

func (c *crcReader) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(c)
	if err != nil && c.err == nil {
		c.err = err
	}
	return v
}

// countingReader counts bytes delivered to Read (for ReadFrom).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// bufReader wraps sequential little-endian primitive reads.
type bufReader struct {
	r   io.Reader
	err error
}

func (b *bufReader) full(p []byte) error {
	if b.err != nil {
		return b.err
	}
	_, b.err = io.ReadFull(b.r, p)
	return b.err
}

func (b *bufReader) u8() uint8 {
	var raw [1]byte
	b.full(raw[:])
	return raw[0]
}

func (b *bufReader) u32() uint32 {
	var raw [4]byte
	b.full(raw[:])
	return binary.LittleEndian.Uint32(raw[:])
}

func (b *bufReader) u64() uint64 {
	var raw [8]byte
	b.full(raw[:])
	return binary.LittleEndian.Uint64(raw[:])
}
