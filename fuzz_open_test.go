package rapidgzip

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"repro/internal/workloads"
)

// FuzzOpenVsStdlib gzips arbitrary bytes with compress/gzip, at a
// fuzzed level and optionally as two members, and requires the
// parallel reader to return exactly what compress/gzip decodes from
// the same file, through ReadAt at fuzzed offsets and through WriteTo.
// Chunks of 4-16 KiB on two workers put several speculative chunks in
// even small inputs, so the block finder, the two-stage decode and
// marker resolution all run.
func FuzzOpenVsStdlib(f *testing.F) {
	f.Add(workloads.SilesiaLike(64<<10, 1), uint8(6), uint32(0), uint8(0), uint32(30_000), uint32(50_000))
	f.Add(workloads.Base64(48<<10, 2), uint8(9), uint32(20_000), uint8(3), uint32(0), uint32(40_000))
	f.Add(workloads.FASTQ(64<<10, 3), uint8(1), uint32(0), uint8(1), uint32(40_000), uint32(5))
	f.Add(bytes.Repeat([]byte("abc"), 20_000), uint8(11), uint32(1), uint8(2), uint32(59_999), uint32(1))
	f.Add([]byte{}, uint8(0), uint32(0), uint8(0), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, levelSel uint8, split uint32, chunkSel uint8, off1, off2 uint32) {
		// Levels -2 (Huffman only) through 9.
		level := int(levelSel)%12 - 2
		var comp bytes.Buffer
		parts := [][]byte{data}
		if split > 0 {
			// A second member starting at a fuzzed offset.
			s := int(split) % (len(data) + 1)
			parts = [][]byte{data[:s], data[s:]}
		}
		for _, part := range parts {
			w, err := gzip.NewWriterLevel(&comp, level)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(part)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		zr, err := gzip.NewReader(bytes.NewReader(comp.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(want, data) {
			t.Fatalf("compress/gzip does not round-trip its own output: %v", err)
		}

		a, err := OpenBytes(comp.Bytes(), WithParallelism(2), WithChunkSize((4+int(chunkSel)%13)<<10))
		if err != nil {
			t.Fatalf("OpenBytes: %v", err)
		}
		defer a.Close()
		for _, off := range []uint32{off1, off2} {
			o := int(off) % (len(want) + 1)
			p := make([]byte, 64<<10)
			n, err := a.ReadAt(p, int64(o))
			if n != min(len(p), len(want)-o) || err != nil && err != io.EOF || n < len(p) && err != io.EOF {
				t.Fatalf("ReadAt(%d bytes, %d) of %d = %d, %v", len(p), o, len(want), n, err)
			}
			if !bytes.Equal(p[:n], want[o:o+n]) {
				t.Fatalf("ReadAt(%d bytes, %d) differs from compress/gzip", len(p), o)
			}
		}
		var got bytes.Buffer
		if _, err := a.WriteTo(&got); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteTo: %d bytes differ from compress/gzip's %d", got.Len(), len(want))
		}
	})
}
