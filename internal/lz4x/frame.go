package lz4x

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/filereader"
	"repro/internal/xxhash"
)

// FrameMagic introduces every LZ4 frame.
const FrameMagic = 0x184D2204

// ErrNotLZ4 reports a missing frame magic.
var ErrNotLZ4 = errors.New("lz4x: not an LZ4 frame")

// ErrChecksum reports a failed xxHash32 verification.
var ErrChecksum = errors.New("lz4x: checksum mismatch")

// FLG bits (frame descriptor).
const (
	flgVersion      = 1 << 6
	flgBlockIndep   = 1 << 5
	flgBlockCheck   = 1 << 4
	flgContentSize  = 1 << 3
	flgContentCheck = 1 << 2
)

// FrameOptions configures CompressFrames.
type FrameOptions struct {
	// BlockSize is the uncompressed bytes per block (max 4 MiB); zero
	// selects 64 KiB. It is rounded up to the nearest frame-format
	// block-maximum class (64K/256K/1M/4M).
	BlockSize int
	// FrameSize splits the input into independent frames of this many
	// uncompressed bytes. Zero writes a single frame. Multi-frame files
	// are the pzstd-style trivially parallelizable structure (§4.9:
	// "For pzstd, Zstandard files with more than one frame are
	// required").
	FrameSize int
	// BlockChecksums appends an xxHash32 to every block.
	BlockChecksums bool
	// ContentChecksum appends an xxHash32 of the whole frame content.
	ContentChecksum bool
}

func (o FrameOptions) withDefaults() FrameOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 64 << 10
	}
	if o.BlockSize > 4<<20 {
		o.BlockSize = 4 << 20
	}
	return o
}

// bdClass returns the BD byte value and actual maximum for a block size.
func bdClass(blockSize int) (byte, int) {
	switch {
	case blockSize <= 64<<10:
		return 4 << 4, 64 << 10
	case blockSize <= 256<<10:
		return 5 << 4, 256 << 10
	case blockSize <= 1<<20:
		return 6 << 4, 1 << 20
	default:
		return 7 << 4, 4 << 20
	}
}

// CompressFrames compresses data into one or more LZ4 frames. Every
// frame carries its uncompressed content size, which is what allows
// the scanner to plan parallel decompression without decoding.
func CompressFrames(data []byte, opts FrameOptions) []byte {
	opts = opts.withDefaults()
	frameSize := opts.FrameSize
	if frameSize <= 0 {
		frameSize = len(data)
	}
	var out []byte
	for start := 0; ; start += frameSize {
		end := start + frameSize
		if end > len(data) {
			end = len(data)
		}
		out = appendFrame(out, data[start:end], opts)
		if end == len(data) {
			break
		}
	}
	return out
}

func appendFrame(out, content []byte, opts FrameOptions) []byte {
	out = binary.LittleEndian.AppendUint32(out, FrameMagic)
	flg := byte(flgVersion | flgBlockIndep | flgContentSize)
	if opts.BlockChecksums {
		flg |= flgBlockCheck
	}
	if opts.ContentChecksum {
		flg |= flgContentCheck
	}
	bd, _ := bdClass(opts.BlockSize)
	descStart := len(out)
	out = append(out, flg, bd)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(content)))
	out = append(out, byte(xxhash.Sum32(out[descStart:], 0)>>8)) // HC byte

	for off := 0; off < len(content) || (off == 0 && len(content) == 0); off += opts.BlockSize {
		end := off + opts.BlockSize
		if end > len(content) {
			end = len(content)
		}
		raw := content[off:end]
		comp := CompressBlock(raw, nil)
		if len(comp) >= len(raw) && len(raw) > 0 {
			// Store incompressible blocks with the high bit set.
			out = binary.LittleEndian.AppendUint32(out, uint32(len(raw))|1<<31)
			out = append(out, raw...)
			if opts.BlockChecksums {
				out = binary.LittleEndian.AppendUint32(out, xxhash.Sum32(raw, 0))
			}
		} else {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(comp)))
			out = append(out, comp...)
			if opts.BlockChecksums {
				out = binary.LittleEndian.AppendUint32(out, xxhash.Sum32(comp, 0))
			}
		}
		if len(content) == 0 {
			break
		}
	}
	out = binary.LittleEndian.AppendUint32(out, 0) // EndMark
	if opts.ContentChecksum {
		out = binary.LittleEndian.AppendUint32(out, xxhash.Sum32(content, 0))
	}
	return out
}

// FrameInfo locates one frame inside a multi-frame file. Fields are
// int64: the scan also runs over positional readers, where offsets are
// not bounded by a slice length (files can exceed 2 GiB on 32-bit
// platforms).
type FrameInfo struct {
	// Offset is the byte position of the frame magic.
	Offset int64
	// End is the byte position just past the frame.
	End int64
	// ContentSize is the declared uncompressed size.
	ContentSize int64
	// ContentStart is the uncompressed offset of this frame's content.
	ContentStart int64

	// flg is the frame descriptor byte, kept so consumers of the scan
	// (the codec's capability flags) need not re-parse the header.
	flg byte
}

// frameHeader is the parsed fixed part of a frame.
type frameHeader struct {
	flg, bd     byte
	contentSize int
	headerLen   int
}

func parseFrameHeader(data []byte) (frameHeader, error) {
	var h frameHeader
	if len(data) < 7 {
		return h, ErrNotLZ4
	}
	if binary.LittleEndian.Uint32(data) != FrameMagic {
		return h, ErrNotLZ4
	}
	h.flg = data[4]
	h.bd = data[5]
	if h.flg&0xC0 != flgVersion {
		return h, fmt.Errorf("lz4x: unsupported frame version %#x", h.flg>>6)
	}
	p := 6
	if h.flg&flgContentSize != 0 {
		if len(data) < p+9 {
			return h, ErrNotLZ4
		}
		h.contentSize = int(binary.LittleEndian.Uint64(data[p:]))
		p += 8
	} else {
		h.contentSize = -1
	}
	hc := data[p]
	p++
	if byte(xxhash.Sum32(data[4:p-1], 0)>>8) != hc {
		return h, fmt.Errorf("lz4x: header checksum mismatch")
	}
	h.headerLen = p
	return h, nil
}

// ScanFramesReader is ScanFrames over a positional reader: frame and
// block headers are parsed through a small refill window and block
// payloads are skipped without reading them, so sizing a multi-
// gigabyte file touches only its metadata bytes. Memory-backed sources
// take the zero-copy whole-buffer path.
func ScanFramesReader(src filereader.FileReader) ([]FrameInfo, error) {
	if data, ok := filereader.Bytes(src); ok {
		return ScanFrames(data)
	}
	w := filereader.NewWalker(src, 0)
	var frames []FrameInfo
	var contentPos int64
	for w.Remaining() > 0 {
		pos := w.Pos()
		// The fixed header is at most 19 bytes (magic, FLG, BD, 8-byte
		// content size, HC); peek what the file still has and let the
		// parser report truncation.
		hdrLen := int64(19)
		if hdrLen > w.Remaining() {
			hdrLen = w.Remaining()
		}
		hdr, err := w.Peek(int(hdrLen))
		if err != nil {
			return nil, fmt.Errorf("lz4x: frame %d at offset %d: %w", len(frames), pos, err)
		}
		h, err := parseFrameHeader(hdr)
		if err != nil {
			return nil, fmt.Errorf("lz4x: frame %d at offset %d: %w", len(frames), pos, err)
		}
		if h.contentSize < 0 {
			return nil, fmt.Errorf("lz4x: frame %d lacks a content size; cannot parallelize", len(frames))
		}
		w.Skip(int64(h.headerLen))
		for {
			b, err := w.Next(4)
			if err != nil {
				return nil, fmt.Errorf("lz4x: truncated frame %d: %w", len(frames), err)
			}
			bsize := binary.LittleEndian.Uint32(b)
			if bsize == 0 {
				break // EndMark
			}
			w.Skip(int64(bsize &^ (1 << 31)))
			if h.flg&flgBlockCheck != 0 {
				w.Skip(4)
			}
			if w.Remaining() < 0 {
				return nil, fmt.Errorf("lz4x: truncated frame %d", len(frames))
			}
		}
		if h.flg&flgContentCheck != 0 {
			w.Skip(4)
			if w.Remaining() < 0 {
				return nil, fmt.Errorf("lz4x: truncated frame %d", len(frames))
			}
		}
		frames = append(frames, FrameInfo{
			Offset: pos, End: w.Pos(), ContentSize: int64(h.contentSize), ContentStart: contentPos,
			flg: h.flg,
		})
		contentPos += int64(h.contentSize)
	}
	return frames, nil
}

// ScanFrames walks a multi-frame file without decompressing, using the
// per-block size fields to skip block payloads. This is the planning
// pass of the parallel decompressor.
func ScanFrames(data []byte) ([]FrameInfo, error) {
	var frames []FrameInfo
	pos, contentPos := 0, 0
	for pos < len(data) {
		h, err := parseFrameHeader(data[pos:])
		if err != nil {
			return nil, fmt.Errorf("lz4x: frame %d at offset %d: %w", len(frames), pos, err)
		}
		if h.contentSize < 0 {
			return nil, fmt.Errorf("lz4x: frame %d lacks a content size; cannot parallelize", len(frames))
		}
		p := pos + h.headerLen
		for {
			if p+4 > len(data) {
				return nil, fmt.Errorf("lz4x: truncated frame %d", len(frames))
			}
			bsize := binary.LittleEndian.Uint32(data[p:])
			p += 4
			if bsize == 0 {
				break // EndMark
			}
			n := int(bsize &^ (1 << 31))
			p += n
			if h.flg&flgBlockCheck != 0 {
				p += 4
			}
			if p > len(data) {
				return nil, fmt.Errorf("lz4x: truncated frame %d", len(frames))
			}
		}
		if h.flg&flgContentCheck != 0 {
			p += 4
			if p > len(data) {
				return nil, fmt.Errorf("lz4x: truncated frame %d", len(frames))
			}
		}
		frames = append(frames, FrameInfo{
			Offset: int64(pos), End: int64(p), ContentSize: int64(h.contentSize), ContentStart: int64(contentPos),
			flg: h.flg,
		})
		contentPos += h.contentSize
		pos = p
	}
	return frames, nil
}

// decompressFrame inflates one frame into dst (sized ContentSize).
func decompressFrame(data []byte, dst []byte) error {
	h, err := parseFrameHeader(data)
	if err != nil {
		return err
	}
	blockMax := []int{0, 0, 0, 0, 64 << 10, 256 << 10, 1 << 20, 4 << 20}[(h.bd>>4)&7]
	if blockMax == 0 {
		return fmt.Errorf("lz4x: invalid BD byte %#x", h.bd)
	}
	p := h.headerLen
	dp := 0
	for {
		if p+4 > len(data) {
			return ErrCorrupt
		}
		bsize := binary.LittleEndian.Uint32(data[p:])
		p += 4
		if bsize == 0 {
			break
		}
		stored := bsize&(1<<31) != 0
		n := int(bsize &^ (1 << 31))
		if n > blockMax+blockMax/255+16 || p+n > len(data) {
			return ErrCorrupt
		}
		payload := data[p : p+n]
		p += n
		if h.flg&flgBlockCheck != 0 {
			if p+4 > len(data) {
				return ErrCorrupt
			}
			if binary.LittleEndian.Uint32(data[p:]) != xxhash.Sum32(payload, 0) {
				return ErrChecksum
			}
			p += 4
		}
		if stored {
			if dp+n > len(dst) {
				return ErrCorrupt
			}
			copy(dst[dp:], payload)
			dp += n
		} else {
			// A compressed block inflates to at most blockMax bytes and
			// never past the declared content size.
			end := dp + blockMax
			if end > len(dst) {
				end = len(dst)
			}
			var out int
			var err error
			if h.flg&flgBlockIndep != 0 {
				out, err = decompressBlockInto(payload, dst[dp:end])
			} else {
				// Linked blocks: matches may reach back into earlier
				// blocks of the same frame, so decode with the frame
				// output so far as history.
				out, err = decompressBlockLoose(payload, dst[:end], dp)
			}
			if err != nil {
				return err
			}
			dp += out
		}
	}
	if h.flg&flgContentCheck != 0 {
		if p+4 > len(data) {
			return ErrCorrupt
		}
		if binary.LittleEndian.Uint32(data[p:]) != xxhash.Sum32(dst[:dp], 0) {
			return ErrChecksum
		}
	}
	if dp != len(dst) {
		return fmt.Errorf("lz4x: frame decoded %d bytes, header declared %d", dp, len(dst))
	}
	return nil
}

// decompressBlockInto is DecompressBlock for a block whose exact output
// size is unknown (only bounded): it returns the bytes produced.
func decompressBlockInto(src, dst []byte) (int, error) {
	// DecompressBlock demands an exact-size dst; blocks inside frames
	// are exact-size by construction except possibly the last one.
	// Try exact first (the common case: all blocks full), then shrink.
	n, err := DecompressBlock(src, dst)
	if err == nil {
		return n, nil
	}
	// Fallback: decode with a tolerant variant.
	return decompressBlockLoose(src, dst, 0)
}

// decompressBlockLoose decodes src into dst starting at position start,
// allowing the output to end before dst is full. dst[:start] is match
// history: offsets may reach into it (the linked-block mode of the
// frame format). It returns the number of bytes produced.
func decompressBlockLoose(src, dst []byte, start int) (int, error) {
	sp, dp := 0, start
	readLen := func(base int) (int, error) {
		v := base
		for {
			if sp >= len(src) {
				return 0, ErrCorrupt
			}
			b := src[sp]
			sp++
			v += int(b)
			if b != 255 {
				return v, nil
			}
		}
	}
	for sp < len(src) {
		token := src[sp]
		sp++
		litLen := int(token >> tokenLitSh)
		if litLen == 15 {
			var err error
			if litLen, err = readLen(15); err != nil {
				return dp - start, err
			}
		}
		if sp+litLen > len(src) || dp+litLen > len(dst) {
			return dp - start, ErrCorrupt
		}
		copy(dst[dp:], src[sp:sp+litLen])
		sp += litLen
		dp += litLen
		if sp == len(src) {
			return dp - start, nil
		}
		if sp+2 > len(src) {
			return dp - start, ErrCorrupt
		}
		offset := int(binary.LittleEndian.Uint16(src[sp:]))
		sp += 2
		if offset == 0 || offset > dp {
			return dp - start, ErrCorrupt
		}
		matchLen := int(token & 15)
		if matchLen == 15 {
			var err error
			if matchLen, err = readLen(15); err != nil {
				return dp - start, err
			}
		}
		matchLen += minMatch
		if dp+matchLen > len(dst) {
			return dp - start, ErrCorrupt
		}
		m := dp - offset
		for i := 0; i < matchLen; i++ {
			dst[dp+i] = dst[m+i]
		}
		dp += matchLen
	}
	return dp - start, nil
}

// Decompress inflates a (possibly multi-frame) LZ4 file serially.
func Decompress(data []byte) ([]byte, error) {
	frames, err := ScanFrames(data)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, f := range frames {
		total += f.ContentSize
	}
	out := make([]byte, total)
	for _, f := range frames {
		if err := decompressFrame(data[f.Offset:f.End], out[f.ContentStart:f.ContentStart+f.ContentSize]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
