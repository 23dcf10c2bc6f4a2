package rapidgzip

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bzip2x"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// fixtureSet builds one compressed fixture per supported format from
// the same uncompressed corpus.
func fixtureSet(t *testing.T, data []byte) map[Format][]byte {
	t.Helper()
	gz, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	bgzf, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	bz, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1, StreamSize: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lz := lz4x.CompressFrames(data, lz4x.FrameOptions{FrameSize: 100 << 10, ContentChecksum: true})
	zs := zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, FrameSize: 100 << 10, ContentChecksum: true})
	return map[Format][]byte{
		FormatGzip:  gz,
		FormatBGZF:  bgzf,
		FormatBzip2: bz,
		FormatLZ4:   lz,
		FormatZstd:  zs,
	}
}

// TestOpenSniffMatrix is the acceptance matrix: one Open call with no
// format hint must detect, fully decompress and randomly access every
// supported format.
func TestOpenSniffMatrix(t *testing.T) {
	data := workloads.Base64(500_000, 77)
	dir := t.TempDir()
	for format, comp := range fixtureSet(t, data) {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(dir, "data."+format.String())
			if err := os.WriteFile(path, comp, 0o644); err != nil {
				t.Fatal(err)
			}
			a, err := Open(path, WithParallelism(4), WithChunkSize(64<<10))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			if a.Format() != format {
				t.Fatalf("Format = %v, want %v", a.Format(), format)
			}
			caps := a.Capabilities()
			if !caps.Seek || !caps.RandomAccess || !caps.Parallel || !caps.Prefetch {
				t.Fatalf("capabilities %+v: multi-chunk fixtures must be seekable, parallel and prefetching", caps)
			}
			if !caps.Index {
				t.Fatalf("capabilities %+v: every format persists an index now", caps)
			}

			// Full sequential decompression.
			var out bytes.Buffer
			if n, err := io.Copy(&out, a); err != nil || n != int64(len(data)) {
				t.Fatalf("Copy: n=%d err=%v", n, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("decompressed content mismatch")
			}
			if size, err := a.Size(); err != nil || size != int64(len(data)) {
				t.Fatalf("Size = %d, %v", size, err)
			}

			// ReadAt at arbitrary offsets, without disturbing the cursor.
			for _, off := range []int64{0, 1, 65_535, 250_000, int64(len(data)) - 100} {
				buf := make([]byte, 100)
				if _, err := a.ReadAt(buf, off); err != nil && err != io.EOF {
					t.Fatalf("ReadAt(%d): %v", off, err)
				}
				if !bytes.Equal(buf, data[off:off+100]) {
					t.Fatalf("ReadAt(%d): content mismatch", off)
				}
			}

			// Seek + Read.
			if _, err := a.Seek(123_456, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			if _, err := io.ReadFull(a, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[123_456:123_456+64]) {
				t.Fatal("Seek+Read mismatch")
			}

			// Concurrent ReadAt (exercised under -race in CI).
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(seed))
					p := make([]byte, 2000)
					for i := 0; i < 15; i++ {
						off := rnd.Int63n(int64(len(data)))
						n, err := a.ReadAt(p, off)
						if err != nil && err != io.EOF {
							t.Errorf("ReadAt(%d): %v", off, err)
							return
						}
						if !bytes.Equal(p[:n], data[off:off+int64(n)]) {
							t.Errorf("ReadAt(%d): mismatch", off)
							return
						}
					}
				}(int64(g))
			}
			wg.Wait()
		})
	}
}

func TestOpenBytesSniffMatrix(t *testing.T) {
	data := workloads.FASTQ(200_000, 5)
	for format, comp := range fixtureSet(t, data) {
		a, err := OpenBytes(comp, WithParallelism(2))
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if a.Format() != format {
			t.Fatalf("Format = %v, want %v", a.Format(), format)
		}
		var out bytes.Buffer
		if _, err := io.Copy(&out, a); err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%v: content mismatch", format)
		}
		a.Close()
	}
}

func TestOpenUnsupportedFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.xz")
	// XZ magic: recognised by nothing here.
	if err := os.WriteFile(path, []byte{0xFD, '7', 'z', 'X', 'Z', 0x00, 1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("err = %v, want ErrUnsupportedFormat", err)
	}
}

// TestOpenDegenerateInputs pins the sniffing contract for inputs too
// short to carry any magic: Open and OpenBytes must fail with the typed
// ErrUnsupportedFormat from the sniffer, never a short-read error
// surfacing from inside a backend.
func TestOpenDegenerateInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"one-byte":     {0x1F},
		"two-bytes":    {0x1F, 0x8B},
		"three-bytes":  {0x28, 0xB5, 0x2F},
		"garbage":      {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33},
		"text":         []byte("hi"),
		"magic-prefix": {'B', 'Z'},
	}
	dir := t.TempDir()
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := OpenBytes(content); !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("OpenBytes: err = %v, want ErrUnsupportedFormat", err)
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path); !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("Open: err = %v, want ErrUnsupportedFormat", err)
			}
		})
	}
}

func TestWithFormatOverride(t *testing.T) {
	data := workloads.Base64(100_000, 9)
	lz := lz4x.CompressFrames(data, lz4x.FrameOptions{})
	// Forcing the right format works.
	a, err := OpenBytes(lz, WithFormat(FormatLZ4))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Forcing the wrong format must fail with the backend's parse error,
	// not decode garbage.
	if _, err := OpenBytes(lz, WithFormat(FormatGzip)); err == nil {
		t.Fatal("gzip backend accepted an LZ4 file")
	}
	// Unsupported Format values fail at option time.
	if _, err := OpenBytes(lz, WithFormat(Format(99))); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("err = %v, want ErrUnsupportedFormat", err)
	}
}

// TestStrategyValidation pins the bugfix: an unknown strategy name must
// be an error everywhere, not silently fall through to adaptive.
func TestStrategyValidation(t *testing.T) {
	data := gzipBytes(t, workloads.Base64(10_000, 1))

	if _, err := OpenBytes(data, WithStrategy("multistrem")); err == nil {
		t.Fatal("WithStrategy accepted a typo")
	}
	for _, ok := range []string{"", "adaptive", "fixed", "multistream"} {
		r, err := OpenBytes(data, WithStrategy(ok))
		if err != nil {
			t.Fatalf("strategy %q rejected: %v", ok, err)
		}
		r.Close()
	}
}

func TestIndexAutoDiscovery(t *testing.T) {
	data := workloads.Base64(400_000, 33)
	comp := gzipBytes(t, data)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.gz")
	if err := os.WriteFile(path, comp, 0o644); err != nil {
		t.Fatal(err)
	}

	// Save a sibling index.
	r, err := Open(path, WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	ixf, err := os.Create(path + IndexSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ExportIndex(ixf); err != nil {
		t.Fatal(err)
	}
	ixf.Close()
	r.Close()

	// A later Open picks it up transparently: the block finder never
	// runs, which FinderProbes witnesses.
	r2, err := Open(path, WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := io.Copy(&out, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch through discovered index")
	}
	if probes := r2.Stats().FinderProbes; probes != 0 {
		t.Fatalf("discovered index should make the run fully indexed; finder probed %d times", probes)
	}
	r2.Close()

	// Opt-out: the same open scans from scratch.
	r3, err := Open(path, WithChunkSize(32<<10), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3)
	if probes := r3.Stats().FinderProbes; probes == 0 {
		t.Fatal("WithoutIndexDiscovery still used the sibling index")
	}
	r3.Close()

	// A corrupt sibling index must not break Open — fall back to a scan.
	if err := os.WriteFile(path+IndexSuffix, []byte("RGZIDX03 garbage that is not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	r4, err := Open(path, WithChunkSize(32<<10))
	if err != nil {
		t.Fatalf("corrupt sibling index broke Open: %v", err)
	}
	out.Reset()
	if _, err := io.Copy(&out, r4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch after fallback")
	}
	r4.Close()

	// An index for a *different* file of the same size is rejected by
	// the source fingerprint and likewise falls back to a scan. The
	// "other" file flips only the gzip header's OS byte: still a valid
	// gzip of identical length and content, but a different file as far
	// as the fingerprint is concerned.
	other := bytes.Clone(comp)
	other[9] ^= 0xFF
	otherPath := filepath.Join(dir, "other.gz")
	if err := os.WriteFile(otherPath, other, 0o644); err != nil {
		t.Fatal(err)
	}
	// Regenerate a valid index for data.gz, then hand it to other.gz.
	r5, err := Open(path, WithChunkSize(32<<10), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	ixf2, err := os.Create(otherPath + IndexSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := r5.ExportIndex(ixf2); err != nil {
		t.Fatal(err)
	}
	ixf2.Close()
	r5.Close()

	r6, err := Open(otherPath, WithChunkSize(32<<10))
	if err != nil {
		t.Fatalf("wrong-file sibling index broke Open: %v", err)
	}
	out.Reset()
	if _, err := io.Copy(&out, r6); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch after fingerprint fallback")
	}
	if probes := r6.Stats().FinderProbes; probes == 0 {
		t.Fatal("an index fingerprinted for a different file was imported anyway")
	}
	r6.Close()
}

func TestWithIndexFile(t *testing.T) {
	data := workloads.Base64(300_000, 44)
	comp := gzipBytes(t, data)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.gz")
	ixPath := filepath.Join(dir, "saved.idx")
	if err := os.WriteFile(path, comp, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, WithChunkSize(32<<10), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	ixf, err := os.Create(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ExportIndex(ixf); err != nil {
		t.Fatal(err)
	}
	ixf.Close()
	r.Close()

	r2, err := Open(path, WithChunkSize(32<<10), WithIndexFile(ixPath))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	var out bytes.Buffer
	if _, err := io.Copy(&out, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch through explicit index")
	}
	if probes := r2.Stats().FinderProbes; probes != 0 {
		t.Fatalf("explicit index import still probed the finder %d times", probes)
	}

	// A gzip index carries a "gzip"-tagged checkpoint table, so handing
	// it to a bzip2 archive is a format mismatch, not a silent fallback.
	bz, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	bzPath := filepath.Join(dir, "data.bz2")
	if err := os.WriteFile(bzPath, bz, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bzPath, WithIndexFile(ixPath)); err == nil || !strings.Contains(err.Error(), "checkpoint table is for format") {
		t.Fatalf("err = %v, want checkpoint-table format mismatch", err)
	}

	// Unlike discovery, an explicit index must fail loudly when broken —
	// for the gzip backend and the span-engine backends alike.
	if err := os.WriteFile(ixPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, WithIndexFile(ixPath)); err == nil {
		t.Fatal("broken explicit index accepted")
	}
	if _, err := Open(bzPath, WithIndexFile(ixPath)); err == nil {
		t.Fatal("broken explicit index accepted by the bzip2 backend")
	}
}

// TestMemArchiveIndexMethods exercises the checkpoint-table index
// round trip on a span-engine backend: export from one archive, import
// into another over the same bytes, and read through the imported
// table.
func TestMemArchiveIndexMethods(t *testing.T) {
	data := workloads.Base64(50_000, 3)
	lz := lz4x.CompressFrames(data, lz4x.FrameOptions{FrameSize: 10_000})
	a, err := OpenBytes(lz)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.BuildIndex(); err != nil {
		t.Fatalf("BuildIndex on checkpointed backend: %v", err)
	}
	var ix bytes.Buffer
	if err := a.ExportIndex(&ix); err != nil {
		t.Fatalf("ExportIndex: %v", err)
	}

	b, err := OpenBytes(lz)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.ImportIndex(bytes.NewReader(ix.Bytes())); err != nil {
		t.Fatalf("ImportIndex: %v", err)
	}
	buf := make([]byte, 1000)
	if _, err := b.ReadAt(buf, 20_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[20_000:21_000]) {
		t.Fatal("content mismatch after checkpoint-table import")
	}

	// An index for different bytes of the same length is rejected by
	// the fingerprint.
	other := bytes.Clone(lz)
	other[30] ^= 0x01 // flip inside the first block's payload (scanner-invisible)
	c, err := OpenBytes(other)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ImportIndex(bytes.NewReader(ix.Bytes())); err == nil {
		t.Fatal("index for different bytes imported")
	}
	// The gzip counters stay zero on span-engine backends.
	if s := a.Stats(); s.ChunksConsumed != 0 || s.GuessTasks != 0 || s.FinderProbes != 0 {
		t.Fatalf("gzip fetcher counters should be zero on a span backend, got %+v", s)
	}
}

// TestCapabilitiesNonSeekableCases pins the honesty requirement: a
// single-stream bzip2 file and a single-frame LZ4 file are readable
// and seekable only at whole-file granularity, so RandomAccess must be
// false while multi-chunk fixtures report true.
func TestCapabilitiesNonSeekableCases(t *testing.T) {
	data := workloads.Base64(150_000, 8)

	bzSingle, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenBytes(bzSingle)
	if err != nil {
		t.Fatal(err)
	}
	if caps := a.Capabilities(); caps.RandomAccess || caps.Parallel {
		t.Fatalf("single-stream bzip2 capabilities %+v: RandomAccess and Parallel must be false", caps)
	}
	a.Close()

	lzSingle := lz4x.CompressFrames(data, lz4x.FrameOptions{})
	a, err = OpenBytes(lzSingle)
	if err != nil {
		t.Fatal(err)
	}
	if caps := a.Capabilities(); caps.RandomAccess || caps.Parallel {
		t.Fatalf("single-frame LZ4 capabilities %+v: RandomAccess and Parallel must be false", caps)
	}
	if a.Capabilities().Verify {
		t.Fatal("LZ4 without checksums must not claim Verify")
	}
	// Seek still works — it just costs a full decode.
	buf := make([]byte, 10)
	if _, err := a.ReadAt(buf, 100_000); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[100_000:100_010]) {
		t.Fatal("ReadAt mismatch on single-frame LZ4")
	}
	a.Close()
}

// TestTarFSOverNonGzipArchive exercises the tarfs-consumes-Archive
// plumbing: a .tar.bz2 serves files exactly like a .tar.gz.
func TestTarFSOverNonGzipArchive(t *testing.T) {
	tarData := workloads.SilesiaLike(400_000, 12) // emits real TAR framing
	bz, err := bzip2x.Compress(tarData, bzip2x.WriterOptions{Level: 1, StreamSize: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenBytes(bz)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fsys, err := TarFS(a)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := fsys.(interface {
		ReadDir(string) ([]os.DirEntry, error)
	}).ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries in tar.bz2 filesystem")
	}
}

// TestImportIndexVsReadAt re-imports an archive's own index while
// concurrent ReadAt callers keep reading: every read must succeed
// byte-exact, because the engine an import replaces stays open until
// Close for the callers still holding it.
func TestImportIndexVsReadAt(t *testing.T) {
	data := workloads.Base64(400_000, 61)
	for format, comp := range fixtureSet(t, data) {
		t.Run(format.String(), func(t *testing.T) {
			a, err := OpenBytes(comp, WithParallelism(2), WithChunkSize(32<<10))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			var ix bytes.Buffer
			if err := a.ExportIndex(&ix); err != nil {
				t.Fatal(err)
			}

			const readers = 4
			done := make(chan struct{})
			var reads atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					buf := make([]byte, 4096)
					for {
						select {
						case <-done:
							return
						default:
						}
						off := rng.Intn(len(data) - len(buf))
						if _, err := a.ReadAt(buf, int64(off)); err != nil {
							t.Errorf("ReadAt(%d): %v", off, err)
							return
						}
						if !bytes.Equal(buf, data[off:off+len(buf)]) {
							t.Errorf("ReadAt(%d): wrong bytes", off)
							return
						}
						reads.Add(1)
					}
				}(r)
			}
			for i := 0; i < 30; i++ {
				// Let the readers get reads in flight on the current
				// engine before replacing it.
				for n := reads.Load() + readers; reads.Load() < n && !t.Failed(); {
					runtime.Gosched()
				}
				if err := a.ImportIndex(bytes.NewReader(ix.Bytes())); err != nil {
					t.Errorf("import %d: %v", i, err)
					break
				}
			}
			close(done)
			wg.Wait()
		})
	}
}

// TestCloseTwiceIsErrClosed: the second Close of an archive reports
// ErrClosed for every format, instead of the file's own error.
func TestCloseTwiceIsErrClosed(t *testing.T) {
	data := workloads.Base64(100_000, 62)
	dir := t.TempDir()
	for format, comp := range fixtureSet(t, data) {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(dir, "data."+format.String())
			if err := os.WriteFile(path, comp, 0o644); err != nil {
				t.Fatal(err)
			}
			a, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			if err := a.Close(); !errors.Is(err, ErrClosed) {
				t.Fatalf("second Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestReadEOFContract pins one Read contract for every format: the
// Read that returns the last bytes returns a nil error, and io.EOF
// comes alone on the next call.
func TestReadEOFContract(t *testing.T) {
	data := workloads.Base64(200_000, 63)
	for format, comp := range fixtureSet(t, data) {
		t.Run(format.String(), func(t *testing.T) {
			a, err := OpenBytes(comp)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if _, err := a.Seek(-100, io.SeekEnd); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 200)
			if n, err := a.Read(buf); n != 100 || err != nil {
				t.Fatalf("last Read = (%d, %v), want (100, nil)", n, err)
			}
			if n, err := a.Read(buf); n != 0 || err != io.EOF {
				t.Fatalf("Read at EOF = (%d, %v), want (0, io.EOF)", n, err)
			}
		})
	}
}
