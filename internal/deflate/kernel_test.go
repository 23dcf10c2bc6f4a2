package deflate

// Equivalence tests for the two marked-mode kernels against per-element
// reference implementations that live only here: the bulk
// emitMarkedMatch must reproduce the reference's output and its exact
// lastMarker (canFallback depends on it), and the table-driven
// ResolveMarkers must agree with a naive resolution, including on
// every error input.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refEmitMarkedMatch appends one back-reference element by element,
// testing every copied symbol for being a marker.
func refEmitMarkedMatch(out []uint16, lastMarker int64, dist, length int) ([]uint16, int64) {
	for k := 0; k < length; k++ {
		pp := len(out)
		if dist <= pp {
			v := out[pp-dist]
			if v >= MarkerBase {
				lastMarker = int64(pp)
			}
			out = append(out, v)
		} else {
			lastMarker = int64(pp)
			out = append(out, uint16(MarkerBase+WindowSize-(dist-pp)))
		}
	}
	return out, lastMarker
}

// refResolveMarkers resolves symbol by symbol, with the window aligned
// to the end of the virtual 32 KiB window.
func refResolveMarkers(src []uint16, window []byte) ([]byte, error) {
	if len(window) > WindowSize {
		window = window[len(window)-WindowSize:]
	}
	dst := make([]byte, len(src))
	for i, v := range src {
		if v < MarkerBase {
			dst[i] = byte(v)
			continue
		}
		idx := int(v) - MarkerBase - (WindowSize - len(window))
		if idx < 0 || idx >= len(window) {
			return nil, ErrBadMarker
		}
		dst[i] = window[idx]
	}
	return dst, nil
}

// randomMarked returns n symbols in which each one is a marker with
// probability density, and the index of the newest marker (-1: none).
func randomMarked(rng *rand.Rand, n int, density float64) ([]uint16, int64) {
	out := make([]uint16, n)
	last := int64(-1)
	for i := range out {
		if rng.Float64() < density {
			out[i] = MarkerBase + uint16(rng.Intn(WindowSize))
			last = int64(i)
		} else {
			out[i] = uint16(rng.Intn(256))
		}
	}
	return out, last
}

func TestEmitMarkedMatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	densities := []float64{0, 1e-4, 0.01, 0.5, 1}
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	for round := 0; round < rounds; round++ {
		density := densities[round%len(densities)]
		// Short prefixes make matches reach into the virtual window;
		// long ones keep them inside the chunk's own history.
		n := rng.Intn(64)
		if round%2 == 1 {
			n = rng.Intn(3 * WindowSize)
		}
		prefix, last := randomMarked(rng, n, density)
		got := append(make([]uint16, 0, n), prefix...)
		want := append(make([]uint16, 0, n), prefix...)
		gotLast, wantLast := last, last
		st := &chunkState{histStart: -WindowSize, maxOut: math.MaxInt}
		for m := 0; m < 50; m++ {
			length := 3 + rng.Intn(256)
			var dist int
			switch rng.Intn(3) {
			case 0: // overlapping: the run repeats a short pattern
				dist = 1 + rng.Intn(length)
			case 1:
				dist = 1 + rng.Intn(WindowSize)
			default: // the edge of the reachable history
				dist = WindowSize - rng.Intn(4)
			}
			var err error
			got, gotLast, err = emitMarkedMatch(st, got, gotLast, dist, length)
			if err != nil {
				t.Fatalf("round %d: dist %d length %d at %d: %v", round, dist, length, len(want), err)
			}
			want, wantLast = refEmitMarkedMatch(want, wantLast, dist, length)
			if gotLast != wantLast {
				t.Fatalf("round %d (density %g): after dist %d length %d at %d: lastMarker %d, want %d",
					round, density, dist, length, len(want)-length, gotLast, wantLast)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d (density %g): output differs from the reference", round, density)
		}
	}
}

func TestResolveMarkersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	full := make([]byte, WindowSize+5000)
	rng.Read(full)
	const n = 128<<10 + 3
	for _, wlen := range []int{WindowSize, WindowSize + 5000, WindowSize - 1, 100, 1, 0} {
		window := full[len(full)-wlen:]
		for _, density := range []float64{0, 0.1, 1} {
			t.Run(fmt.Sprintf("window=%d/markers=%g", wlen, density), func(t *testing.T) {
				src, _ := randomMarked(rng, n, density)
				// Markers may only reach into the window that exists.
				lo := WindowSize - min(wlen, WindowSize)
				for i, v := range src {
					switch {
					case v < MarkerBase || int(v-MarkerBase) >= lo:
					case wlen == 0:
						src[i] = uint16(rng.Intn(256))
					default:
						src[i] = MarkerBase + uint16(lo+rng.Intn(WindowSize-lo))
					}
				}
				want, err := refResolveMarkers(src, window)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(src))
				if err := ResolveMarkers(got, src, window); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("output differs from the reference")
				}
			})
		}
	}
}

func TestResolveMarkersRejectsBadSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	window := make([]byte, WindowSize)
	rng.Read(window)
	const n = 128 << 10
	cases := []struct {
		name   string
		window []byte
		bad    uint16
	}{
		{"before short window", window[WindowSize-100:], MarkerBase + WindowSize - 101},
		{"oldest marker, empty window", nil, MarkerBase},
		{"past marker range", window, MarkerBase + WindowSize},
		{"max symbol", window, math.MaxUint16},
		{"past marker range, short window", window[WindowSize-100:], MarkerBase + WindowSize + 7},
	}
	for _, c := range cases {
		for _, at := range []int{0, n / 2, n - 1} {
			t.Run(fmt.Sprintf("%s/at=%d", c.name, at), func(t *testing.T) {
				src, _ := randomMarked(rng, n, 0)
				src[at] = c.bad
				if _, err := refResolveMarkers(src, c.window); err != ErrBadMarker {
					t.Fatalf("reference: got %v", err)
				}
				dst := make([]byte, n)
				if err := ResolveMarkers(dst, src, c.window); err != ErrBadMarker {
					t.Fatalf("got %v, want ErrBadMarker", err)
				}
			})
		}
	}
}
