package core

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"testing"

	"strings"

	"repro/internal/deflate"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/prefetch"
)

// mkText builds repetitive text (marker-heavy under compression).
func mkText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"wood", "chuck", "would", "how", "much", "if", "a", "the", "quick"}
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, words[rng.Intn(len(words))]...)
		out = append(out, ' ')
	}
	return out[:n]
}

// mkBase64 builds base64-style data (almost no back-references).
func mkBase64(seed int64, n int) []byte {
	const alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		if i%77 == 76 {
			out[i] = '\n'
		} else {
			out[i] = alpha[rng.Intn(64)]
		}
	}
	return out
}

func mkRandom(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func open(t testing.TB, comp []byte, cfg testConfig) *reader {
	t.Helper()
	r, err := newReader(comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func readAll(t testing.TB, r *reader) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The cross-product matrix: data kinds x compressor structures, small
// chunk size to force many parallel chunks.
func compressorMatrix() map[string]gzipw.Options {
	return map[string]gzipw.Options{
		"gzip":        {Level: 6, BlockSize: 32 << 10},
		"gzip-small":  {Level: 9, BlockSize: 8 << 10},
		"pigz":        {Level: 6, BlockSize: 32 << 10, IndependentChunks: 64 << 10},
		"stored":      {Level: 0},
		"single":      {Level: 1, SingleBlock: true, Strategy: gzipw.DynamicOnly},
		"multimember": {Level: 6, BlockSize: 32 << 10, MemberSize: 100 << 10},
		"bgzf":        {Level: 6, BGZF: true},
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	datasets := map[string][]byte{
		"text":   mkText(1, 900_000),
		"base64": mkBase64(2, 900_000),
		"random": mkRandom(3, 500_000),
	}
	for dname, data := range datasets {
		for cname, opts := range compressorMatrix() {
			comp, _, err := gzipw.Compress(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				r := open(t, comp, testConfig{Parallelism: par, ChunkSize: 64 << 10, VerifyChecksums: true})
				got := readAll(t, r)
				if !bytes.Equal(got, data) {
					t.Fatalf("%s/%s P=%d: mismatch (%d vs %d bytes)", dname, cname, par, len(got), len(data))
				}
				if ok, fails := r.CRCStatus(); !ok || fails > 0 {
					t.Fatalf("%s/%s P=%d: CRC verification failed (%d failures)", dname, cname, par, fails)
				}
			}
		}
	}
}

func TestStdlibCompressedInput(t *testing.T) {
	// Files produced by an entirely independent compressor.
	data := mkText(4, 1_200_000)
	for _, level := range []int{1, 6, 9} {
		var buf bytes.Buffer
		w, _ := gzip.NewWriterLevel(&buf, level)
		w.Write(data)
		w.Close()
		r := open(t, buf.Bytes(), testConfig{Parallelism: 6, ChunkSize: 32 << 10, VerifyChecksums: true})
		if got := readAll(t, r); !bytes.Equal(got, data) {
			t.Fatalf("level %d: mismatch", level)
		}
		stats := r.g.Stats()
		if stats.GuessTasks == 0 {
			t.Fatalf("level %d: no speculative decodes happened (chunking broken)", level)
		}
	}
}

func TestReadSmallPieces(t *testing.T) {
	data := mkText(5, 300_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, testConfig{Parallelism: 3, ChunkSize: 32 << 10})
	var got []byte
	buf := make([]byte, 777)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("piecewise read mismatch")
	}
}

func TestSeekAndRead(t *testing.T) {
	data := mkText(6, 600_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		off := rng.Intn(len(data) - 100)
		if _, err := r.Seek(int64(off), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 100)
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !bytes.Equal(buf, data[off:off+100]) {
			t.Fatalf("offset %d: mismatch", off)
		}
	}
	// SeekEnd and SeekCurrent.
	end, err := r.Seek(0, io.SeekEnd)
	if err != nil || end != int64(len(data)) {
		t.Fatalf("SeekEnd: %d, %v", end, err)
	}
	if _, err := r.Seek(-10, io.SeekCurrent); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(rest, data[len(data)-10:]) {
		t.Fatalf("tail read: %q %v", rest, err)
	}
}

func TestReadAtConcurrent(t *testing.T) {
	// §3: "fast concurrent access at two different offsets".
	data := mkText(8, 800_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, testConfig{
		Parallelism: 4, ChunkSize: 32 << 10,
		Strategy: prefetch.NewMultiStream(), AccessCacheSize: 8,
	})
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			start := g * len(data) / 2
			buf := make([]byte, 1000)
			for off := start; off+len(buf) < start+len(data)/2; off += 50_000 {
				if _, err := r.ReadAt(buf, int64(off)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, data[off:off+len(buf)]) {
					errs <- io.ErrUnexpectedEOF
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestIndexExportImport(t *testing.T) {
	data := mkText(9, 700_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})

	r1 := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 64 << 10})
	var ixBuf bytes.Buffer
	if err := r1.ExportIndex(&ixBuf); err != nil {
		t.Fatal(err)
	}

	r2 := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 64 << 10, VerifyChecksums: true})
	if err := r2.ImportIndex(bytes.NewReader(ixBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, data) {
		t.Fatal("decode with imported index mismatch")
	}
	stats := r2.g.Stats()
	if stats.GuessTasks != 0 {
		t.Fatalf("index-primed decode ran %d speculative tasks", stats.GuessTasks)
	}
	if ok, _ := r2.CRCStatus(); !ok {
		t.Fatal("CRC verification failed with index")
	}
	// Random access with imported index needs no initial pass.
	r3 := open(t, comp, testConfig{Parallelism: 2, ChunkSize: 64 << 10})
	if err := r3.ImportIndex(bytes.NewReader(ixBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 500)
	off := len(data) - 600
	if _, err := r3.ReadAt(buf, int64(off)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+500]) {
		t.Fatal("random access with index mismatch")
	}
}

func TestImportIndexWrongFile(t *testing.T) {
	data := mkText(10, 100_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r1 := open(t, comp, testConfig{Parallelism: 2})
	var ixBuf bytes.Buffer
	if err := r1.ExportIndex(&ixBuf); err != nil {
		t.Fatal(err)
	}
	other, _, _ := gzipw.Compress(mkText(11, 50_000), gzipw.Options{Level: 6})
	r2 := open(t, other, testConfig{Parallelism: 2})
	if err := r2.ImportIndex(bytes.NewReader(ixBuf.Bytes())); err == nil {
		t.Fatal("index for a different file accepted")
	}
}

func TestImportIndexWrongFileSameSize(t *testing.T) {
	// Two different files of identical compressed length: the size
	// check alone cannot tell them apart, the source fingerprint must.
	data := mkText(10, 100_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r1 := open(t, comp, testConfig{Parallelism: 2})
	var ixBuf bytes.Buffer
	if err := r1.ExportIndex(&ixBuf); err != nil {
		t.Fatal(err)
	}
	other := bytes.Clone(comp)
	other[100] ^= 0xFF // same length, different content
	r2 := open(t, other, testConfig{Parallelism: 2})
	err := r2.ImportIndex(bytes.NewReader(ixBuf.Bytes()))
	if err == nil {
		t.Fatal("index for a different file of identical size accepted")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("rejected for the wrong reason: %v", err)
	}
}

func TestImportFingerprintlessV2Index(t *testing.T) {
	// Indexes saved before the fingerprint existed must keep importing
	// (they just stay size-checked only) — and a re-export upgrades
	// them to the fingerprinted format.
	data := mkText(10, 100_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r1 := open(t, comp, testConfig{Parallelism: 2})
	var ixBuf bytes.Buffer
	if err := r1.ExportIndex(&ixBuf); err != nil {
		t.Fatal(err)
	}
	// Strip the fingerprint to emulate a v2-era index.
	ix, err := gzindex.Read(bytes.NewReader(ixBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ix.SourceFP = nil
	var v2ish bytes.Buffer
	if _, err := ix.WriteTo(&v2ish); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, comp, testConfig{Parallelism: 2})
	if err := r2.ImportIndex(bytes.NewReader(v2ish.Bytes())); err != nil {
		t.Fatalf("fingerprint-less index rejected: %v", err)
	}
	var re bytes.Buffer
	if err := r2.ExportIndex(&re); err != nil {
		t.Fatal(err)
	}
	reIx, err := gzindex.Read(bytes.NewReader(re.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if reIx.SourceFP == nil {
		t.Fatal("re-export did not adopt the file fingerprint")
	}
}

func TestBGZFFastPath(t *testing.T) {
	data := mkText(12, 600_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 128 << 10, VerifyChecksums: true})
	// The index must be complete before any read: BGZF needs no scan.
	if r.eng.Complete() != true {
		t.Fatal("BGZF file not recognised by the fast path")
	}
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("BGZF decode mismatch")
	}
	stats := r.g.Stats()
	if stats.GuessTasks != 0 {
		t.Fatalf("BGZF path ran %d speculative tasks", stats.GuessTasks)
	}
	if ok, _ := r.CRCStatus(); !ok {
		t.Fatal("BGZF CRC verification failed")
	}
}

func TestSingleBlockFileDegradesGracefully(t *testing.T) {
	// igzip -0 structure: one huge dynamic block; parallelization is
	// impossible (§4.8) but decoding must stay correct.
	data := mkBase64(13, 400_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 1, SingleBlock: true, Strategy: gzipw.DynamicOnly})
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10})
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("single-block decode mismatch")
	}
	stats := r.g.Stats()
	if stats.GuessNoBlock == 0 {
		t.Fatal("expected no-block speculative results for a single-block file")
	}
}

func TestHighCompressionRatioFile(t *testing.T) {
	// Zeros compress ~1000x; speculative chunks hit the ratio guard and
	// the frontier decode must still handle the file (§1.4).
	data := make([]byte, 8<<20)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 9, BlockSize: 64 << 10})
	if len(comp) > 100_000 {
		t.Fatalf("zeros should compress tiny, got %d", len(comp))
	}
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 8 << 10, GuessedRatioLimit: 8})
	got := readAll(t, r)
	if !bytes.Equal(got, data) {
		t.Fatal("high-ratio decode mismatch")
	}
}

func TestChunkSplitting(t *testing.T) {
	// A high-ratio file must yield index entries much smaller than the
	// raw decode units (§1.4 chunk splitting).
	data := bytes.Repeat(mkText(14, 1000), 3000) // ~3 MB, very repetitive
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 9, BlockSize: 8 << 10})
	r := open(t, comp, testConfig{Parallelism: 2, ChunkSize: 16 << 10})
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ix := r.Index()
	if ix.Len() < 4 {
		t.Fatalf("expected split entries, got %d", ix.Len())
	}
	var maxSize uint64
	for i := 0; i+1 < ix.Len(); i++ {
		size := ix.Point(i+1).UncompressedOffset - ix.Point(i).UncompressedOffset
		if size > maxSize {
			maxSize = size
		}
	}
	if maxSize > uint64(16<<10)*8 {
		t.Fatalf("largest entry %d far exceeds chunk size", maxSize)
	}
	// Re-reading via the split index must be correct.
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("split-index read mismatch")
	}
}

func TestTruncatedFileErrors(t *testing.T) {
	data := mkText(15, 200_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	trunc := comp[:len(comp)/2]
	r := open(t, trunc, testConfig{Parallelism: 2, ChunkSize: 16 << 10})
	var buf bytes.Buffer
	_, err := r.WriteTo(&buf)
	if err == nil {
		t.Fatal("truncated file decoded without error")
	}
}

func TestCorruptMidFileErrors(t *testing.T) {
	data := mkText(16, 400_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	comp[len(comp)/2] ^= 0xA5
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10})
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err == nil {
		// Corruption may land in a place that still decodes structurally;
		// then the checksum pass must catch it instead.
		r2 := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10, VerifyChecksums: true})
		var buf2 bytes.Buffer
		if _, err2 := r2.WriteTo(&buf2); err2 == nil {
			if ok, _ := r2.CRCStatus(); ok && bytes.Equal(buf2.Bytes(), data) {
				t.Fatal("corruption silently ignored")
			}
		}
	}
}

func TestEmptyFile(t *testing.T) {
	comp, _, _ := gzipw.Compress(nil, gzipw.Options{Level: 6})
	r := open(t, comp, testConfig{Parallelism: 2})
	got := readAll(t, r)
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
	size, err := r.Size()
	if err != nil || size != 0 {
		t.Fatalf("size %d err %v", size, err)
	}
}

func TestNotGzipErrors(t *testing.T) {
	if _, err := newReader([]byte("not a gzip file"), testConfig{}); err == nil {
		t.Fatal("non-gzip input accepted")
	}
}

func TestSizeWithoutReading(t *testing.T) {
	data := mkText(17, 300_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10})
	size, err := r.Size()
	if err != nil || size != int64(len(data)) {
		t.Fatalf("size %d err %v want %d", size, err, len(data))
	}
}

func TestPrefetchStrategies(t *testing.T) {
	data := mkText(18, 500_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	for name, s := range map[string]prefetch.Strategy{
		"fixed":       prefetch.NewFixed(),
		"adaptive":    prefetch.NewAdaptive(),
		"multistream": prefetch.NewMultiStream(),
	} {
		r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10, Strategy: s})
		if got := readAll(t, r); !bytes.Equal(got, data) {
			t.Fatalf("%s: mismatch", name)
		}
	}
}

func TestSerialBaselineAgreement(t *testing.T) {
	// The parallel reader and the plain serial decoder must agree.
	data := mkText(19, 400_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	serial, err := deflate.DecompressGzip(comp)
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10})
	if got := readAll(t, r); !bytes.Equal(got, serial) {
		t.Fatal("parallel disagrees with serial")
	}
}
