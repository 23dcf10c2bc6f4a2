package deflate_test

// Ablation benchmark for the paper's §1.3 claim that index-primed
// decompression "is more than twice as fast as the two-stage
// decompression": the same chunk of a real gzip file is decoded (a)
// two-stage with markers, (b) single-stage with the known window, the
// path every indexed chunk decode takes.

import (
	"bytes"
	"testing"

	"repro/internal/bitio"
	deflate "repro/internal/deflate"
	"repro/internal/gzipw"
	"repro/internal/workloads"
)

// chunkFixture compresses data like gzip -6 with 64 KiB blocks and
// picks a ~2 MiB chunk that starts at the first non-final block at or
// after 2 MiB, as a speculative worker would decode it.
func chunkFixture(tb testing.TB, data []byte) (comp []byte, start, end gzipw.BlockOffset, window []byte, size int) {
	tb.Helper()
	comp, meta, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 64 << 10})
	if err != nil {
		tb.Fatal(err)
	}
	for _, bo := range meta.Blocks {
		if bo.Decomp >= 2<<20 && !bo.Final && start.Bit == 0 {
			start = bo
		}
		if start.Bit != 0 && bo.Decomp >= start.Decomp+(2<<20) && !bo.Final {
			end = bo
			break
		}
	}
	if start.Bit == 0 || end.Bit == 0 {
		tb.Fatal("no suitable chunk found")
	}
	window = data[start.Decomp-deflate.WindowSize : start.Decomp]
	size = int(end.Decomp - start.Decomp)
	return comp, start, end, window, size
}

// TestTwoStageFallbackPoint pins where two-stage decoding switches to
// single-stage (paper §3.3) on the three data shapes of the paper's
// evaluation, so that kernel work cannot move the fallback point
// silently: SilesiaLike and FASTQ keep markers alive through the whole
// 2 MiB chunk, while Base64 falls back once 32 KiB of output are free
// of markers, at the next block boundary.
func TestTwoStageFallbackPoint(t *testing.T) {
	cases := []struct {
		name       string
		data       func(n int, seed uint64) []byte
		wantMarked int
	}{
		{"Base64", workloads.Base64, 64 << 10},
		{"SilesiaLike", workloads.SilesiaLike, 2 << 20},
		{"FASTQ", workloads.FASTQ, 2 << 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.name != "Base64" {
				t.Skip("compressing 8 MiB per shape is slow under -race; Base64 pins the fallback itself")
			}
			data := c.data(8<<20, 17)
			comp, start, end, window, size := chunkFixture(t, data)
			var dec deflate.Decoder
			cr, err := dec.DecodeChunk(bitio.NewBitReaderBytes(comp), deflate.ChunkConfig{
				Start: start.Bit, Stop: end.Bit, TwoStage: true, SizeHint: size,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(cr.Marked) != c.wantMarked {
				t.Errorf("marked segment %d symbols of %d, want %d", len(cr.Marked), cr.TotalOut(), c.wantMarked)
			}
			segs, err := cr.Resolved(window)
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.Join(segs, nil); !bytes.Equal(got, data[start.Decomp:end.Decomp]) {
				t.Fatal("resolved output differs from the input")
			}
		})
	}
}

func BenchmarkChunkDecodeTwoStage(b *testing.B) {
	comp, start, end, window, size := chunkFixture(b, workloads.SilesiaLike(8<<20, 17))
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dec deflate.Decoder
		cr, err := dec.DecodeChunk(bitio.NewBitReaderBytes(comp), deflate.ChunkConfig{
			Start: start.Bit, Stop: end.Bit, TwoStage: true, SizeHint: size,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Include marker replacement: that is the full two-stage cost.
		if _, err := cr.Resolved(window); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkDecodeSingleStage(b *testing.B) {
	comp, start, end, window, size := chunkFixture(b, workloads.SilesiaLike(8<<20, 17))
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dec deflate.Decoder
		cr, err := dec.DecodeChunk(bitio.NewBitReaderBytes(comp), deflate.ChunkConfig{
			Start: start.Bit, Stop: end.Bit, Window: window, SizeHint: size,
		})
		if err != nil {
			b.Fatal(err)
		}
		if cr.TotalOut() != uint64(size) {
			b.Fatalf("decoded %d, want %d", cr.TotalOut(), size)
		}
	}
}
