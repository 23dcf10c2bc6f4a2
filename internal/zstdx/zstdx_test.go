package zstdx

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/filereader"
	"repro/internal/spanengine"
	"repro/internal/workloads"
)

func TestDecodeRealMultiFrame(t *testing.T) {
	comp, err := os.ReadFile("testdata/real-multiframe.zst")
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.Base64(262144, 77)
	scan, err := ScanFrames(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 4 || !scan.Sized {
		t.Fatalf("scan: %d frames, sized=%v; want 4 sized frames", len(scan.Frames), scan.Sized)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("serial decode mismatch")
	}
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len(want))
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parallel decode mismatch")
	}
}

func TestDecodeRealNoContentSize(t *testing.T) {
	comp, err := os.ReadFile("testdata/real-nosize.zst")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ScanFrames(comp)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Sized {
		t.Fatal("streamed fixture unexpectedly declares content sizes")
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.FASTQ(131072, 33); !bytes.Equal(got, want) {
		t.Fatal("decode mismatch")
	}
}

func TestDecodeRealRepetitive(t *testing.T) {
	comp, err := os.ReadFile("testdata/real-repetitive.zst")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte("zstd "), 40000); !bytes.Equal(got, want) {
		t.Fatal("decode mismatch")
	}
}

// encoderInputs are the shapes the encoder must handle; all are
// deterministic.
func encoderInputs() map[string][]byte {
	return map[string][]byte{
		"empty":   {},
		"one":     {42},
		"two":     {1, 2},
		"rle":     bytes.Repeat([]byte{7}, 100000),
		"text":    bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 5000),
		"base64":  workloads.Base64(1<<20, 5),
		"fastq":   workloads.FASTQ(1<<20, 6),
		"random":  workloads.Random(300000, 4),
		"hibytes": workloads.Random(65536, 9), // symbols ≥ 128: raw-literals path
	}
}

func encoderOptions() []FrameOptions {
	return []FrameOptions{
		{},
		{Level: 1},
		{Level: 1, ContentChecksum: true},
		{Level: 1, FrameSize: 256 << 10, ContentChecksum: true},
		{Level: 1, FrameSize: 100000, BlockSize: 10000},
		{Level: 1, OmitContentSize: true},
		{FrameSize: 1 << 18, OmitContentSize: true, ContentChecksum: true},
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	for name, data := range encoderInputs() {
		for _, opt := range encoderOptions() {
			comp := CompressFrames(data, opt)
			got, err := Decompress(comp)
			if err != nil {
				t.Fatalf("%s/%+v: %v", name, opt, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%+v: mismatch (%d vs %d bytes)", name, opt, len(got), len(data))
			}
		}
	}
}

// TestEncodeInterop pipes our encoder's output through the reference
// zstd CLI when present (skipped otherwise — CI has it).
func TestEncodeInterop(t *testing.T) {
	if _, err := exec.LookPath("zstd"); err != nil {
		t.Skip("zstd binary not installed")
	}
	dir := t.TempDir()
	for name, data := range encoderInputs() {
		for i, opt := range encoderOptions() {
			comp := CompressFrames(data, opt)
			zf := filepath.Join(dir, fmt.Sprintf("%s-%d.zst", name, i))
			of := zf + ".out"
			if err := os.WriteFile(zf, comp, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("zstd", "-d", "-f", "-o", of, zf)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s/%+v: zstd -d rejected our frames: %v: %s", name, opt, err, out)
			}
			ref, err := os.ReadFile(of)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, data) {
				t.Fatalf("%s/%+v: zstd -d output mismatch", name, opt)
			}
		}
	}
}

func TestSkippableFrames(t *testing.T) {
	data := workloads.Base64(100000, 11)
	comp := AppendSkippable(nil, []byte("index payload"))
	comp = append(comp, CompressFrames(data, FrameOptions{Level: 1, FrameSize: 30000})...)
	comp = AppendSkippable(comp, nil)
	scan, err := ScanFrames(comp)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Skippable != 2 || len(scan.Frames) != 4 {
		t.Fatalf("scan: %d skippable, %d frames; want 2 and 4", scan.Skippable, len(scan.Frames))
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode mismatch around skippable frames")
	}
	r, err := newEngine(comp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumSpans() != 4 {
		t.Fatalf("engine has %d spans, want the 4 data frames", r.NumSpans())
	}
	got = make([]byte, len(data))
	if _, err := r.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("engine decode around skippable frames: err=%v", err)
	}
}

func TestReaderRandomAccess(t *testing.T) {
	data := workloads.FASTQ(1<<20, 21)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 64 << 10, ContentChecksum: true})
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Flags()&FlagMetadataSized != 0) || !(r.Flags()&FlagChecksummed != 0) {
		t.Fatalf("Sized=%v Checksummed=%v; want both", (r.Flags()&FlagMetadataSized != 0), (r.Flags()&FlagChecksummed != 0))
	}
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(data))
	}
	if r.NumSpans() != 16 {
		t.Fatalf("NumFrames = %d, want 16", r.NumSpans())
	}
	offsets := []int64{0, 1, 65535, 65536, 65537, 500000, int64(len(data)) - 100}
	for _, off := range offsets {
		buf := make([]byte, 1000)
		n, err := r.ReadAt(buf, off)
		want := min(len(buf), len(data)-int(off))
		if n != want || (err != nil && !errors.Is(err, io.EOF)) {
			t.Fatalf("ReadAt(%d): n=%d err=%v, want n=%d", off, n, err, want)
		}
		if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
			t.Fatalf("ReadAt(%d): content mismatch", off)
		}
	}
	// chunk table covers the stream contiguously
	var pos int64
	for i := 0; i < r.NumSpans(); i++ {
		off, size := r.SpanExtent(i)
		if off != pos {
			t.Fatalf("chunk %d starts at %d, want %d", i, off, pos)
		}
		content, err := r.SpanContent(i)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(content)) != size {
			t.Fatalf("chunk %d: %d bytes, extent says %d", i, len(content), size)
		}
		pos += size
	}
	if pos != r.Size() {
		t.Fatalf("chunks cover %d bytes, size is %d", pos, r.Size())
	}
}

func TestReaderConcurrentReadAt(t *testing.T) {
	data := workloads.Base64(512<<10, 13)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 32 << 10})
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 5000)
			for i := 0; i < 40; i++ {
				off := int64((g*97 + i*31337) % (len(data) - len(buf)))
				n, err := r.ReadAt(buf, off)
				if err != nil || n != len(buf) {
					t.Errorf("ReadAt(%d): n=%d err=%v", off, n, err)
					return
				}
				if !bytes.Equal(buf, data[off:off+int64(n)]) {
					t.Errorf("ReadAt(%d): mismatch", off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestReaderUnsizedFrames(t *testing.T) {
	data := workloads.Base64(300<<10, 19)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 100 << 10, OmitContentSize: true})
	r, err := newEngine(comp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flags()&FlagMetadataSized != 0 {
		t.Fatal("OmitContentSize frames reported as sized")
	}
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size = %d after sizing pass, want %d", r.Size(), len(data))
	}
	buf := make([]byte, 4096)
	off := int64(250 << 10)
	if _, err := r.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+4096]) {
		t.Fatal("ReadAt mismatch on unsized file")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	data := workloads.Base64(50000, 2)
	comp := CompressFrames(data, FrameOptions{Level: 1, ContentChecksum: true})
	// Flip a byte inside the payload (past the 6-byte header).
	bad := append([]byte{}, comp...)
	bad[len(bad)/2] ^= 0x40
	if _, err := Decompress(bad); err == nil {
		t.Fatal("corrupted frame decoded without error")
	}
}

func TestTruncationsAndGarbageDoNotPanic(t *testing.T) {
	data := workloads.Base64(100000, 8)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 30000, ContentChecksum: true})
	for cut := 0; cut < len(comp); cut += 917 {
		if _, err := Decompress(comp[:cut]); err == nil && cut < len(comp) {
			// Truncation at a frame boundary legitimately decodes a
			// prefix; anything else must error.
			if _, serr := ScanFrames(comp[:cut]); serr == nil {
				continue
			}
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for i := 0; i < 64; i++ {
		garbage := workloads.Random(300, uint64(i))
		_, _ = Decompress(garbage) // must not panic
	}
	if _, err := Decompress([]byte{0x28, 0xB5, 0x2F, 0xFD}); err == nil {
		t.Fatal("bare magic decoded")
	}
	if _, err := Decompress(nil); err != nil {
		t.Fatalf("empty input is zero frames, got %v", err)
	}
}

func TestDictionaryFramesRejected(t *testing.T) {
	// Frame header with Dictionary_ID_flag = 1 and a one-byte dict ID.
	frame := []byte{0x28, 0xB5, 0x2F, 0xFD, 0x01, 0x00, 0x07, 0x01, 0x00, 0x00}
	if _, err := Decompress(frame); err == nil {
		t.Fatal("dictionary frame decoded without error")
	}
}

func TestErrNotZstd(t *testing.T) {
	if _, err := ScanFrames([]byte("not a zstd file at all")); !errors.Is(err, ErrNotZstd) {
		t.Fatalf("got %v, want ErrNotZstd", err)
	}
}

// newEngine serves comp through the shared span engine with this
// package's codec — the path every archive of this format takes.
func newEngine(comp []byte, threads int) (*spanengine.Engine, error) {
	return spanengine.New(filereader.MemoryReader(comp), Codec{}, spanengine.Config{Threads: threads})
}
