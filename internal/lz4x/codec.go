package lz4x

import (
	"fmt"

	"repro/internal/filereader"
	"repro/internal/spanengine"
)

// FormatTag identifies LZ4 checkpoint tables in persisted indexes.
const FormatTag = "lz4 "

// Codec capability flags persisted alongside the checkpoint table.
const (
	// FlagChecksummed marks files whose frames carry xxHash32 block or
	// content checksums, i.e. decoding verifies payload integrity.
	FlagChecksummed uint8 = 1 << 0
	// FlagBlockIndep marks files whose every frame declares independent
	// blocks.
	FlagBlockIndep uint8 = 1 << 1
)

// Codec is the LZ4 half of the shared span engine. LZ4 is the paper's
// best case, degenerate in the right way: every frame header declares
// its content size, so Scan is a pure header walk — zero sizing
// decodes — and the whole checkpoint table comes from metadata.
type Codec struct{}

// FormatTag implements spanengine.Codec.
func (Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec via ScanFramesReader (the §4.9
// metadata planning pass, windowed: only header bytes are ever read).
// It fails on anything the scan cannot plan — in particular frames
// that omit the content-size field.
func (Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	frames, err := ScanFramesReader(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	res := spanengine.ScanResult{Flags: FlagBlockIndep}
	for _, f := range frames {
		if f.flg&flgBlockIndep == 0 {
			res.Flags &^= FlagBlockIndep
		}
		if f.flg&(flgBlockCheck|flgContentCheck) != 0 {
			res.Flags |= FlagChecksummed
		}
		res.Spans = append(res.Spans, spanengine.Span{
			CompOff:    f.Offset,
			CompEnd:    f.End,
			DecompOff:  f.ContentStart,
			DecompSize: f.ContentSize,
		})
	}
	return res, nil
}

// DecodeSpan implements spanengine.Codec: one span is one frame, read
// with one pread of its compressed extent and inflated as a unit
// (dependent blocks decode fine — the frame is the smallest seekable
// grain either way).
func (Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	ext, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	out := make([]byte, s.DecompSize)
	if err := decompressFrame(ext, out); err != nil {
		return nil, fmt.Errorf("lz4x: frame at offset %d: %w", s.CompOff, err)
	}
	return out, nil
}
