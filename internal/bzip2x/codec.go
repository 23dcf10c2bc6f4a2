package bzip2x

import (
	"bytes"
	"compress/bzip2"
	"errors"
	"fmt"
	"io"

	"repro/internal/filereader"
	"repro/internal/pool"
	"repro/internal/spanengine"
)

// FormatTag identifies bzip2 checkpoint tables in persisted indexes.
const FormatTag = "bz2 "

// streamMagicLen is the prefix checked by FindStreams: "BZh", a level
// digit, and the first block's 48-bit magic (or the footer magic of an
// empty stream).
const streamMagicLen = 10

// streamMagicAt reports whether b (at least streamMagicLen bytes)
// spells a bzip2 stream header followed by a block or footer magic.
func streamMagicAt(b []byte) bool {
	if b[0] != 'B' || b[1] != 'Z' || b[2] != 'h' {
		return false
	}
	if b[3] < '1' || b[3] > '9' {
		return false
	}
	m := uint64(0)
	for _, c := range b[4:10] {
		m = m<<8 | uint64(c)
	}
	return m == blockMagic || m == footerMagic
}

// FindStreams scans for byte offsets that look like bzip2 stream
// starts. Offset 0 is always included (the caller validates it by
// decompressing). Like the gzip block finder, this may return false
// positives — compressed payload bytes can spell the magic — so the
// caller must be ready to fall back (§3: trial and error).
func FindStreams(data []byte) []int {
	offs := []int{0}
	for i := 1; i+streamMagicLen <= len(data); i++ {
		if streamMagicAt(data[i:]) {
			offs = append(offs, i)
		}
	}
	return offs
}

// findWindow is the chunk size FindStreamsReader scans at a time.
// bzip2 declares nothing, so the magic scan must touch every byte of
// the file either way — the window only bounds how much of it is
// resident at once.
const findWindow = 1 << 20

// FindStreamsReader is FindStreams over a positional reader: the file
// is scanned in findWindow-sized chunks overlapping by
// streamMagicLen-1 bytes, so peak resident source stays one window
// regardless of file size. Memory-backed sources take the zero-copy
// whole-buffer path.
func FindStreamsReader(src filereader.FileReader) ([]int64, error) {
	if data, ok := filereader.Bytes(src); ok {
		ints := FindStreams(data)
		offs := make([]int64, len(ints))
		for i, v := range ints {
			offs[i] = int64(v)
		}
		return offs, nil
	}
	offs := []int64{0}
	size := src.Size()
	buf := make([]byte, findWindow)
	for base := int64(0); base+streamMagicLen <= size; {
		n := int64(len(buf))
		if base+n > size {
			n = size - base
		}
		chunk := buf[:n]
		if rn, err := src.ReadAt(chunk, base); int64(rn) < n {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%w: bzip2 magic scan at offset %d: %w", filereader.ErrIO, base, err)
		}
		for p := 0; p+streamMagicLen <= len(chunk); p++ {
			if base+int64(p) == 0 {
				continue
			}
			if streamMagicAt(chunk[p:]) {
				offs = append(offs, base+int64(p))
			}
		}
		if base+n == size {
			break
		}
		// Overlap by streamMagicLen-1 so a magic straddling the window
		// boundary is still seen exactly once.
		base += n - (streamMagicLen - 1)
	}
	return offs, nil
}

// Decompress inflates a bzip2 file serially (any block/stream layout),
// delegating to the standard library decoder.
func Decompress(data []byte) ([]byte, error) {
	out, err := io.ReadAll(bzip2.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, fmt.Errorf("bzip2x: %w", err)
	}
	return out, nil
}

// Codec is the bzip2 half of the shared span engine: the sizing pass
// (bzip2 declares no sizes anywhere, so Scan decompresses the whole
// file once, in parallel, merging spans cut short by false-positive
// magics) and the per-span decode.
type Codec struct {
	// Threads parallelizes the sizing pass; values < 1 mean 1.
	Threads int
}

// FormatTag implements spanengine.Codec.
func (Codec) FormatTag() string { return FormatTag }

// sizeSpan decodes the candidate span [start, stop) of src and returns
// only its decompressed length: the compressed extent is read once
// (pooled), the output streamed through io.Copy and never materialized
// — the sizing pass of a file larger than RAM keeps peak memory at
// threads × compressed span size.
func sizeSpan(src filereader.FileReader, start, stop int64) (int64, error) {
	ext, release, err := filereader.Extent(src, start, stop)
	if err != nil {
		return 0, err
	}
	defer release()
	n, err := io.Copy(io.Discard, bzip2.NewReader(bytes.NewReader(ext)))
	if err != nil {
		return 0, fmt.Errorf("bzip2x: %w", err)
	}
	return n, nil
}

// Scan implements spanengine.Codec: candidate stream boundaries come
// from FindStreamsReader (a bounded windowed magic scan), the spans
// between them size-decode in parallel, and any span that fails (a
// false-positive magic splitting a real stream) is merged with its
// successor and retried, which converges on the true stream layout.
// Peak memory stays bounded by the scan window plus threads × span
// extent — only the span sizes are recorded, never the outputs.
func (c Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	threads := c.Threads
	if threads < 1 {
		threads = 1
	}
	cands, err := FindStreamsReader(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	end := func(i int) int64 {
		if i+1 < len(cands) {
			return cands[i+1]
		}
		return src.Size()
	}

	// First guess: every candidate starts a stream. Size all spans
	// concurrently; failures are resolved by merging below.
	p := pool.New(threads)
	defer p.Close()
	futs := make([]*pool.Future[int64], len(cands))
	for i := range cands {
		start, stop := cands[i], end(i)
		futs[i] = pool.Go(p, func() (int64, error) {
			return sizeSpan(src, start, stop)
		})
	}
	firstLen := make([]int64, len(cands))
	firstErr := make([]error, len(cands))
	for i, fut := range futs {
		firstLen[i], firstErr[i] = fut.Wait()
	}

	res := spanengine.ScanResult{SizingDecodes: uint64(len(cands))}
	var decomp int64
	for i := 0; i < len(cands); {
		start := cands[i]
		j := i
		size, err := firstLen[i], firstErr[i]
		for err != nil {
			// Merging only resolves format errors (a false-positive
			// candidate cut a real stream short). A read failure would
			// just recur over ever-larger extents — fail fast instead.
			if errors.Is(err, filereader.ErrIO) {
				return spanengine.ScanResult{}, fmt.Errorf("bzip2x: sizing stream at offset %d: %w", start, err)
			}
			// The span was cut short by a false-positive candidate:
			// extend it over the next candidate and retry.
			j++
			if j >= len(cands) {
				return spanengine.ScanResult{}, fmt.Errorf("bzip2x: stream at offset %d: %w", start, err)
			}
			size, err = sizeSpan(src, start, end(j))
			res.SizingDecodes++
		}
		res.Spans = append(res.Spans, spanengine.Span{
			CompOff:    start,
			CompEnd:    end(j),
			DecompOff:  decomp,
			DecompSize: size,
		})
		decomp += size
		i = j + 1
	}
	return res, nil
}

// DecodeSpan implements spanengine.Codec: one pread of the span's
// compressed extent, decompressed with the stdlib decoder (which
// verifies block CRCs, so span decodes always verify integrity).
func (Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	ext, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	out, err := Decompress(ext)
	if err != nil {
		// The span decoded during the sizing pass (or was persisted by
		// one); only data corruption since then can get here.
		return nil, fmt.Errorf("bzip2x: span at offset %d: %w", s.CompOff, err)
	}
	return out, nil
}
