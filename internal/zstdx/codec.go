package zstdx

import (
	"fmt"

	"repro/internal/filereader"
	"repro/internal/spanengine"
)

// FormatTag identifies Zstandard checkpoint tables in persisted
// indexes.
const FormatTag = "zstd"

// Codec capability flags persisted alongside the checkpoint table.
const (
	// FlagChecksummed marks files whose every data frame carries an
	// xxHash64 content checksum, i.e. every decode verifies integrity.
	FlagChecksummed uint8 = 1 << 0
	// FlagMetadataSized marks files whose every frame header declared
	// its content size — the checkpoint table came from metadata alone
	// (§4.9's trivially parallelizable shape).
	FlagMetadataSized uint8 = 1 << 1
)

// Codec is the Zstandard half of the shared span engine. When every
// frame declares its content size, Scan is a pure header-and-block
// walk (zero sizing decodes — the §4.9 metadata fast path); frames
// without one force a sequential sizing decode, whose outputs prime
// the engine cache so small files do not pay twice.
type Codec struct{}

// FormatTag implements spanengine.Codec.
func (Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec via ScanFramesReader (a windowed
// header walk that never reads block payloads) plus a sizing decode
// for every frame that omits its content size.
func (Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	scan, err := ScanFramesReader(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	res := spanengine.ScanResult{}
	if scan.Sized {
		res.Flags |= FlagMetadataSized
	}
	if len(scan.Frames) > 0 {
		res.Flags |= FlagChecksummed
	}
	for _, f := range scan.Frames {
		if !f.HasChecksum {
			res.Flags &^= FlagChecksummed
		}
	}
	var decomp int64
	for i, f := range scan.Frames {
		size := f.ContentSize
		if f.ContentSize < 0 {
			// Sizing pass: decode the unsized frame once to pin down its
			// decompressed extent, handing the content to the engine so
			// it lands in the span cache.
			ext, release, err := filereader.Extent(src, f.Offset, f.End)
			if err != nil {
				return spanengine.ScanResult{}, err
			}
			content, err := decodeFrame(ext)
			release()
			if err != nil {
				return spanengine.ScanResult{}, fmt.Errorf("zstdx: sizing frame %d: %w", i, err)
			}
			size = int64(len(content))
			res.SizingDecodes++
			if res.Primed == nil {
				res.Primed = map[int][]byte{}
			}
			res.Primed[i] = content
		}
		res.Spans = append(res.Spans, spanengine.Span{
			CompOff:    f.Offset,
			CompEnd:    f.End,
			DecompOff:  decomp,
			DecompSize: size,
		})
		decomp += size
	}
	return res, nil
}

// DecodeSpan implements spanengine.Codec: one span is one data frame,
// read with one pread of its compressed extent and verified against
// its content checksum when present. (The engine checks the decoded
// length against the table.)
func (Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	ext, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	out, err := decodeFrame(ext)
	if err != nil {
		return nil, fmt.Errorf("zstdx: frame at offset %d: %w", s.CompOff, err)
	}
	return out, nil
}
