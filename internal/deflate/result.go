package deflate

import "errors"

// ErrBadMarker reports a marker that points outside the supplied window,
// which indicates corruption or a wrong window.
var ErrBadMarker = errors.New("deflate: marker outside window")

// ResolveMarkers replaces the 16-bit symbols of src with bytes: values
// below MarkerBase are literals, the rest index into window, which holds
// the (up to) 32 KiB of decompressed data preceding the chunk. This is
// the second stage of two-stage decompression (paper §2.2); Table 2
// benchmarks it as "Marker replacement".
//
// dst must have length len(src). A window shorter than 32 KiB (chunk
// near the start of the stream) is aligned to the *end* of the virtual
// 32 KiB window, matching how markers were assigned; of a longer one
// only the last 32 KiB count.
func ResolveMarkers(dst []byte, src []uint16, window []byte) error {
	// Every symbol costs one table load and one store, whether literal
	// or marker: literals map to themselves, marker MarkerBase+i to its
	// window byte, and markers before a short window to badMarker,
	// whose bit is OR-accumulated and tested once at the end.
	const badMarker = 1 << 8
	var lut [MarkerBase + WindowSize]uint16
	for i := range MarkerBase {
		lut[i] = uint16(i)
	}
	if len(window) > WindowSize {
		window = window[len(window)-WindowSize:]
	}
	marks := lut[MarkerBase:]
	shift := WindowSize - len(window)
	for i := range shift {
		marks[i] = badMarker
	}
	for i, b := range window {
		marks[shift+i] = uint16(b)
	}

	dst = dst[:len(src)]
	var acc uint16
	for i, v := range src {
		if int(v) >= len(lut) {
			return ErrBadMarker
		}
		r := lut[v]
		acc |= r
		dst[i] = byte(r)
	}
	if acc&badMarker != 0 {
		return ErrBadMarker
	}
	return nil
}

// WindowAt computes the resolved 32 KiB window for the position end
// within this chunk, given the resolved window that preceded the chunk.
// It resolves at most 32 Ki symbols, straight into the window, so it is
// cheap enough to run serially while full marker replacement happens in
// parallel (paper §2.2: only the last 32 KiB must be propagated
// serially).
func (cr *ChunkResult) WindowAt(end uint64, prevWindow []byte) ([]byte, error) {
	end = min(end, cr.TotalOut())
	n := int(min(end, WindowSize))
	// The chunk produced fewer than 32 KiB up to end: the rest comes
	// from the previous window.
	keep := min(WindowSize-n, len(prevWindow))
	win := make([]byte, keep+n)
	copy(win, prevWindow[len(prevWindow)-keep:])
	out := win[keep:]
	pos, m := int(end)-n, len(cr.Marked)
	if pos < m {
		mEnd := min(int(end), m)
		if err := ResolveMarkers(out[:mEnd-pos], cr.Marked[pos:mEnd], prevWindow); err != nil {
			return nil, err
		}
		out, pos = out[mEnd-pos:], mEnd
	}
	if len(out) > 0 {
		copy(out, cr.Raw[pos-m:])
	}
	return win, nil
}

// Resolved returns the chunk's decompressed bytes as up to two segments
// (resolved-marked, raw), avoiding a copy of the raw segment. window is
// only needed when a marked segment exists.
func (cr *ChunkResult) Resolved(window []byte) ([][]byte, error) {
	var segs [][]byte
	if len(cr.Marked) > 0 {
		dst := make([]byte, len(cr.Marked))
		if err := ResolveMarkers(dst, cr.Marked, window); err != nil {
			return nil, err
		}
		segs = append(segs, dst)
	}
	if len(cr.Raw) > 0 {
		segs = append(segs, cr.Raw)
	}
	return segs, nil
}
