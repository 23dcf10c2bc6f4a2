package bzip2x

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/filereader"
	"repro/internal/spanengine"
	"repro/internal/workloads"
)

// stdlibRoundTrip compresses with this package and decompresses with
// the standard library — the ground-truth check for format fidelity.
func stdlibRoundTrip(t *testing.T, data []byte, opts WriterOptions) {
	t.Helper()
	comp, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatalf("stdlib rejected our stream: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
	}
}

func TestCompressStdlibValidates(t *testing.T) {
	cases := map[string][]byte{
		"empty":   nil,
		"one":     []byte("q"),
		"ascii":   []byte("hello, bzip2 world! hello, bzip2 world!"),
		"zeros":   make([]byte, 100_000),
		"runs":    bytes.Repeat([]byte{'a', 'a', 'a', 'a', 'a', 'a', 'b'}, 5_000),
		"random":  workloads.Random(150_000, 1),
		"base64":  workloads.Base64(150_000, 2),
		"silesia": workloads.SilesiaLike(300_000, 3),
		"fastq":   workloads.FASTQ(150_000, 4),
		"allbytes": func() []byte {
			b := make([]byte, 4096)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(),
		"periodic": bytes.Repeat([]byte("ab"), 30_000),
		"rle-edge": bytes.Repeat([]byte{'x'}, 259), // 255-run + 4-run boundary
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			stdlibRoundTrip(t, data, WriterOptions{Level: 1})
		})
	}
}

func TestCompressLevels(t *testing.T) {
	data := workloads.SilesiaLike(250_000, 5)
	for level := 1; level <= 9; level++ {
		stdlibRoundTrip(t, data, WriterOptions{Level: level})
	}
	if _, err := Compress(nil, WriterOptions{Level: 10}); err == nil {
		t.Fatal("level 10 accepted")
	}
}

func TestMultiBlockSingleStream(t *testing.T) {
	// Level 1 = 100 kB blocks; 350 kB forces 4+ blocks in one stream.
	data := workloads.Base64(350_000, 6)
	stdlibRoundTrip(t, data, WriterOptions{Level: 1})
}

func TestMultiStream(t *testing.T) {
	data := workloads.SilesiaLike(500_000, 7)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	// The standard library must accept the concatenation serially.
	got, err := Decompress(comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("multi-stream serial decode failed: %v", err)
	}
	offs := FindStreams(comp)
	if len(offs) != 5 {
		t.Fatalf("found %d stream candidates, want 5", len(offs))
	}
}

func TestParallelFallbackOnFalsePositive(t *testing.T) {
	// Plant a fake stream magic inside a REAL stream's payload region
	// is hard to do deterministically, so emulate the effect: a file
	// with one real stream and candidate offsets injected by prefixing
	// stored magic bytes inside the data itself. The data contains the
	// literal stream prefix, which (if it survives compression
	// literally) could produce a false candidate; either way the
	// sizing pass must merge it away and the engine return correct
	// output.
	payload := append([]byte("BZh1"), []byte{0x31, 0x41, 0x59, 0x26, 0x53, 0x59}...)
	data := append(workloads.Base64(200_000, 9), bytes.Repeat(payload, 100)...)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("false-positive handling broke the output")
	}
}

func TestRLE1RoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(rle1Decode(rle1Encode(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Run-length edge cases around the 4-byte trigger and 255 cap.
	for _, n := range []int{1, 2, 3, 4, 5, 254, 255, 256, 259, 510, 1000} {
		data := bytes.Repeat([]byte{'z'}, n)
		if got := rle1Decode(rle1Encode(data)); !bytes.Equal(got, data) {
			t.Fatalf("run of %d: got %d bytes back", n, len(got))
		}
	}
}

func TestRLE1SplitPoint(t *testing.T) {
	data := bytes.Repeat([]byte{'a', 'b', 'c'}, 1000)
	p := rle1SplitPoint(data, 100)
	if p == 0 || p > 100 {
		t.Fatalf("split point %d", p)
	}
	if got := len(rle1Encode(data[:p])); got > 100 {
		t.Fatalf("prefix encodes to %d > limit", got)
	}
	if p2 := rle1SplitPoint(data, 1<<20); p2 != len(data) {
		t.Fatalf("unbounded split %d, want %d", p2, len(data))
	}
}

func TestBWTRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		last, ptr := bwt(data)
		return bytes.Equal(bwtInverse(last, ptr), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"banana":   []byte("banana"),
		"periodic": bytes.Repeat([]byte("ab"), 500),
		"zeros":    make([]byte, 2000),
		"single":   {42},
	} {
		last, ptr := bwt(data)
		if got := bwtInverse(last, ptr); !bytes.Equal(got, data) {
			t.Fatalf("%s: inverse mismatch", name)
		}
	}
}

func TestBWTKnownVector(t *testing.T) {
	// The classic example: BWT("banana") = "nnbaaa", row 3 (rotations
	// sorted: abanan, anaban, ananab, banana, nabana, nanaba).
	last, ptr := bwt([]byte("banana"))
	if string(last) != "nnbaaa" || ptr != 3 {
		t.Fatalf("bwt(banana) = %q, %d", last, ptr)
	}
}

func TestMSBWriter(t *testing.T) {
	w := &msbWriter{}
	w.writeBits(0b1, 1)
	w.writeBits(0b0110, 4)
	w.writeBits(0b101, 3)
	// 1 0110 101 -> 0xB5
	w.writeBits(0xABCD, 16)
	w.writeBits(0x3, 2)
	w.align()
	want := []byte{0xB5, 0xAB, 0xCD, 0xC0}
	if !bytes.Equal(w.bytes(), want) {
		t.Fatalf("got %x want %x", w.bytes(), want)
	}
}

func TestBlockCRCAgainstReference(t *testing.T) {
	// bzip2's CRC is the bit-reversed IEEE CRC-32: checking a known
	// property — CRC of empty data is 0 after the final inversion of
	// an all-ones register... simply pin the implementation with a
	// reference value computed from the bzlib algorithm definition.
	if got := blockCRC(nil); got != 0 {
		// ^(^0) == 0
		t.Fatalf("blockCRC(nil) = %#x", got)
	}
	// Distinctness and order sensitivity.
	a := blockCRC([]byte("abc"))
	b := blockCRC([]byte("acb"))
	if a == b || a == 0 {
		t.Fatalf("weak CRC: %#x %#x", a, b)
	}
}

func TestCompressionRatioReasonable(t *testing.T) {
	data := workloads.SilesiaLike(400_000, 10)
	comp, err := Compress(data, WriterOptions{Level: 9})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(data)) / float64(len(comp))
	// Paper Table 4: bzip2 ratio 3.88 on Silesia. Our single-table
	// Huffman coding loses some density; accept >= 2.
	if ratio < 2 {
		t.Fatalf("bzip2 ratio %.2f too weak", ratio)
	}
	t.Logf("bzip2x ratio on silesia-like: %.2f", ratio)
}

func TestCompressedPayloadProperty(t *testing.T) {
	// Arbitrary bytes must survive compress -> stdlib decompress.
	f := func(data []byte) bool {
		comp, err := Compress(data, WriterOptions{Level: 1})
		if err != nil {
			return false
		}
		got, err := Decompress(comp)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderReadAt(t *testing.T) {
	data := workloads.SilesiaLike(500_000, 21)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(data))
	}
	if r.NumSpans() != 5 {
		t.Fatalf("NumStreams = %d, want 5", r.NumSpans())
	}
	offs := []int64{0, 1, 99_999, 100_000, 100_001, 333_333, int64(len(data)) - 1}
	for _, off := range offs {
		buf := make([]byte, 4096)
		n, err := r.ReadAt(buf, off)
		want := len(data) - int(off)
		if want > len(buf) {
			want = len(buf)
		}
		if n != want || (err != nil && err != io.EOF) {
			t.Fatalf("ReadAt(%d): n=%d err=%v, want n=%d", off, n, err, want)
		}
		if !bytes.Equal(buf[:n], data[off:int(off)+n]) {
			t.Fatalf("ReadAt(%d): content mismatch", off)
		}
	}
	if _, err := r.ReadAt(make([]byte, 1), r.Size()); err != io.EOF {
		t.Fatalf("ReadAt(EOF) err = %v, want io.EOF", err)
	}
}

func TestReaderSingleStream(t *testing.T) {
	data := workloads.Base64(200_000, 22)
	comp, err := Compress(data, WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumSpans() != 1 {
		t.Fatalf("NumStreams = %d, want 1", r.NumSpans())
	}
	buf := make([]byte, 1000)
	if _, err := r.ReadAt(buf, 150_000); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[150_000:151_000]) {
		t.Fatal("single-stream ReadAt mismatch")
	}
}

func TestReaderConcurrentReadAt(t *testing.T) {
	data := workloads.FASTQ(400_000, 23)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			buf := make([]byte, 2048)
			for i := 0; i < 30; i++ {
				off := rnd.Int63n(int64(len(data)))
				n, err := r.ReadAt(buf, off)
				if err != nil && err != io.EOF {
					t.Errorf("ReadAt(%d): %v", off, err)
					return
				}
				if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
					t.Errorf("ReadAt(%d): mismatch", off)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestReaderRejectsCorrupt(t *testing.T) {
	data := workloads.Base64(100_000, 24)
	comp, err := Compress(data, WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	comp[len(comp)/2] ^= 0xFF
	if _, err := newEngine(comp, 2); err == nil {
		t.Fatal("corrupt file accepted")
	}
}

// newEngine serves comp through the shared span engine with this
// package's codec — the path every archive of this format takes.
func newEngine(comp []byte, threads int) (*spanengine.Engine, error) {
	return spanengine.New(filereader.MemoryReader(comp), Codec{Threads: threads}, spanengine.Config{Threads: threads})
}
