package deflate_test

// Ablation benchmark for the paper's §1.3 claim that index-primed
// decompression "is more than twice as fast as the two-stage
// decompression": the same chunk of a real gzip file is decoded (a)
// two-stage with markers, (b) single-stage with the known window, the
// path every indexed chunk decode takes.

import (
	"testing"

	"repro/internal/bitio"
	deflate "repro/internal/deflate"
	"repro/internal/gzipw"
	"repro/internal/workloads"
)

func chunkFixture(b *testing.B) (comp []byte, start, end gzipw.BlockOffset, window []byte, size int) {
	b.Helper()
	data := workloads.SilesiaLike(8<<20, 17)
	comp, meta, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	// A ~2 MiB chunk starting mid-file.
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
		b.Fatal("no suitable chunk found")
	}
	window = data[start.Decomp-deflate.WindowSize : start.Decomp]
	size = int(end.Decomp - start.Decomp)
	return comp, start, end, window, size
}

func BenchmarkChunkDecodeTwoStage(b *testing.B) {
	comp, start, end, window, size := chunkFixture(b)
	b.SetBytes(int64(size))
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
	comp, start, end, window, size := chunkFixture(b)
	b.SetBytes(int64(size))
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
