package lz4x

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/filereader"
	"repro/internal/spanengine"
	"repro/internal/workloads"
	"repro/internal/xxhash"
)

func roundTripBlock(t *testing.T, data []byte) {
	t.Helper()
	comp := CompressBlock(data, nil)
	if len(comp) > CompressBlockBound(len(data)) {
		t.Fatalf("compressed %d exceeds bound %d", len(comp), CompressBlockBound(len(data)))
	}
	out := make([]byte, len(data))
	n, err := DecompressBlock(comp, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(out, data) {
		t.Fatalf("round trip mismatch (%d bytes)", n)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"empty":   nil,
		"one":     []byte("x"),
		"tiny":    []byte("hello"),
		"twelve":  []byte("123456789012"),
		"repeat":  bytes.Repeat([]byte("ab"), 10_000),
		"zeros":   make([]byte, 100_000),
		"random":  workloads.Random(100_000, 1),
		"base64":  workloads.Base64(100_000, 2),
		"silesia": workloads.SilesiaLike(200_000, 3),
		"fastq":   workloads.FASTQ(100_000, 4),
		"overlap": append(bytes.Repeat([]byte("a"), 20), []byte("bcdefgh")...),
		"period3": bytes.Repeat([]byte("abc"), 5000),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { roundTripBlock(t, data) })
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		comp := CompressBlock(data, nil)
		out := make([]byte, len(data))
		n, err := DecompressBlock(comp, out)
		return err == nil && n == len(data) && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCompressesRepetitiveData(t *testing.T) {
	data := bytes.Repeat([]byte("the quick brown fox "), 5000)
	comp := CompressBlock(data, nil)
	if len(comp) > len(data)/10 {
		t.Fatalf("repetitive data compressed only to %d/%d", len(comp), len(data))
	}
}

func TestHandCraftedBlock(t *testing.T) {
	// token 0x54: 5 literals, match len 4+4=8 at offset 5 -> "abcdeabcdeabc"
	src := []byte{0x54, 'a', 'b', 'c', 'd', 'e', 5, 0, 0x30, 'x', 'y', 'z'}
	want := []byte("abcdeabcdeabcxyz")
	dst := make([]byte, len(want))
	n, err := DecompressBlock(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || !bytes.Equal(dst, want) {
		t.Fatalf("got %q", dst[:n])
	}
}

func TestDecompressBlockRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		{0x10},                  // literal length 1 but no literal byte
		{0x04, 'a', 9, 0},       // offset 9 > produced 1
		{0x04, 'a', 0, 0},       // offset 0 invalid
		{0xF0, 255},             // unterminated length extension
		{0x04, 'a', 1, 0, 0xFF}, // match overruns destination
	}
	for i, src := range cases {
		dst := make([]byte, 4)
		if _, err := DecompressBlock(src, dst); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	data := workloads.SilesiaLike(1_000_000, 5)
	for _, opts := range []FrameOptions{
		{},
		{BlockSize: 16 << 10},
		{BlockSize: 300 << 10},
		{BlockChecksums: true},
		{ContentChecksum: true},
		{BlockChecksums: true, ContentChecksum: true},
		{FrameSize: 200 << 10},
		{FrameSize: 100 << 10, BlockSize: 32 << 10, BlockChecksums: true, ContentChecksum: true},
	} {
		comp := CompressFrames(data, opts)
		got, err := Decompress(comp)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%+v: mismatch", opts)
		}
	}
}

func TestFrameEmptyInput(t *testing.T) {
	comp := CompressFrames(nil, FrameOptions{})
	got, err := Decompress(comp)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %d bytes, %v", len(got), err)
	}
}

func TestScanFrames(t *testing.T) {
	data := workloads.Base64(500_000, 6)
	comp := CompressFrames(data, FrameOptions{FrameSize: 100_000})
	frames, err := ScanFrames(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		t.Fatalf("got %d frames, want 5", len(frames))
	}
	var contentPos, prevEnd int64
	for i, f := range frames {
		if f.Offset != prevEnd {
			t.Fatalf("frame %d starts at %d, previous ended at %d", i, f.Offset, prevEnd)
		}
		if f.ContentStart != contentPos {
			t.Fatalf("frame %d content start %d, want %d", i, f.ContentStart, contentPos)
		}
		contentPos += f.ContentSize
		prevEnd = f.End
	}
	if prevEnd != int64(len(comp)) || contentPos != int64(len(data)) {
		t.Fatalf("scan covered %d/%d compressed, %d/%d content", prevEnd, len(comp), contentPos, len(data))
	}
}

func TestChecksumsCatchCorruption(t *testing.T) {
	data := workloads.Base64(300_000, 8)
	comp := CompressFrames(data, FrameOptions{BlockChecksums: true, ContentChecksum: true, FrameSize: 64 << 10})
	for _, flip := range []int{len(comp) / 3, len(comp) / 2, len(comp) - 10} {
		bad := bytes.Clone(comp)
		bad[flip] ^= 0x40
		if _, err := Decompress(bad); err == nil {
			t.Fatalf("corruption at %d not detected", flip)
		}
	}
}

func TestNotLZ4(t *testing.T) {
	if _, err := Decompress([]byte("certainly not lz4")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ScanFrames([]byte{0x04, 0x22, 0x4D, 0x18}); err == nil {
		t.Fatal("bare magic accepted")
	}
}

func TestTruncatedFrame(t *testing.T) {
	data := workloads.Base64(100_000, 9)
	comp := CompressFrames(data, FrameOptions{})
	for _, cut := range []int{5, 20, len(comp) / 2, len(comp) - 1} {
		if _, err := Decompress(comp[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReaderReadAt(t *testing.T) {
	data := workloads.Base64(600_000, 11)
	comp := CompressFrames(data, FrameOptions{FrameSize: 100_000, BlockSize: 16 << 10})
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(data))
	}
	if r.NumSpans() != 6 {
		t.Fatalf("NumFrames = %d, want 6", r.NumSpans())
	}
	if !(r.Flags()&FlagBlockIndep != 0) {
		t.Fatal("CompressFrames output should be block-independent")
	}
	// Arbitrary offsets, including frame-straddling and tail reads.
	offs := []int64{0, 1, 99_999, 100_000, 100_001, 250_000, 599_000, int64(len(data)) - 1}
	for _, off := range offs {
		buf := make([]byte, 5000)
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

func TestReaderConcurrentReadAt(t *testing.T) {
	data := workloads.FASTQ(300_000, 3)
	comp := CompressFrames(data, FrameOptions{FrameSize: 50_000, ContentChecksum: true})
	r, err := newEngine(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Flags()&FlagChecksummed != 0) {
		t.Fatal("expected Checksummed")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			buf := make([]byte, 3000)
			for i := 0; i < 40; i++ {
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

// linkedFrame hand-crafts a frame in linked-block (dependent) mode: a
// stored first block and a compressed second block whose match reaches
// back into the first block — illegal for an independent-block decoder.
func linkedFrame(t *testing.T) (comp, content []byte) {
	t.Helper()
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, FrameMagic)
	flg := byte(flgVersion | flgContentSize) // no flgBlockIndep
	bd := byte(4 << 4)
	descStart := len(out)
	out = append(out, flg, bd)
	out = binary.LittleEndian.AppendUint64(out, 12)
	out = append(out, byte(xxhash.Sum32(out[descStart:], 0)>>8))
	// Block 1: stored "ABCDEFGH".
	out = binary.LittleEndian.AppendUint32(out, 8|1<<31)
	out = append(out, "ABCDEFGH"...)
	// Block 2: one sequence, zero literals, 4-byte match at offset 8.
	out = binary.LittleEndian.AppendUint32(out, 3)
	out = append(out, 0x00, 0x08, 0x00)
	out = binary.LittleEndian.AppendUint32(out, 0) // EndMark
	return out, []byte("ABCDEFGHABCD")
}

func TestLinkedBlockFrameDecodes(t *testing.T) {
	comp, want := linkedFrame(t)
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	r, err := newEngine(comp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flags()&FlagBlockIndep != 0 {
		t.Fatal("linked frame reported as block-independent")
	}
	buf := make([]byte, 4)
	if _, err := r.ReadAt(buf, 8); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "ABCD" {
		t.Fatalf("ReadAt tail = %q", buf)
	}
}

// newEngine serves comp through the shared span engine with this
// package's codec — the path every archive of this format takes.
func newEngine(comp []byte, threads int) (*spanengine.Engine, error) {
	return spanengine.New(filereader.MemoryReader(comp), Codec{}, spanengine.Config{Threads: threads})
}
