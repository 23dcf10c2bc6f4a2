package rapidgzip

// One testing.B benchmark per table and figure of the paper's
// evaluation (§4). These are the quick, `go test -bench` views; the
// full sweeps with paper-style output come from cmd/benchsuite (see
// EXPERIMENTS.md).
//
// Throughput (`B/s` via b.SetBytes) is always measured in decompressed
// bytes, like the paper's bandwidth axes.

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitio"
	"repro/internal/blockfinder"
	"repro/internal/bzip2x"
	"repro/internal/filereader"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/pugz"
	"repro/internal/workloads"
)

// --- shared fixtures, built once ----------------------------------------

type fixture struct {
	raw  []byte
	comp []byte
	idx  map[int][]byte // per-parallelism index (entry spacing scales with P)
}

var (
	fixtures   = map[string]*fixture{}
	fixturesMu sync.Mutex
)

// getFixture builds (once) a compressed workload.
func getFixture(b *testing.B, name string, gen func(int, uint64) []byte, size int, preset string) *fixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[name]; ok {
		return f
	}
	raw := gen(size, 42)
	opts, err := gzipw.Preset(preset)
	if err != nil {
		b.Fatal(err)
	}
	comp, _, err := gzipw.Compress(raw, opts)
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{raw: raw, comp: comp, idx: map[int][]byte{}}
	fixtures[name] = f
	return f
}

// indexFor builds (once per P) a seek-point index whose entry spacing
// matches the chunk size used at that parallelism.
func (f *fixture) indexFor(b *testing.B, p int) []byte {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if idx, ok := f.idx[p]; ok {
		return idx
	}
	r, err := OpenBytes(f.comp, WithChunkSize(scaledChunk(len(f.comp), p)))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.ExportIndex(&buf); err != nil {
		b.Fatal(err)
	}
	r.Close()
	f.idx[p] = buf.Bytes()
	return buf.Bytes()
}

// scaledChunk keeps many chunks per worker at bench-scale file sizes
// (the paper's regime with its 512 MB/core files); Fig12 sweeps the
// parameter explicitly.
func scaledChunk(compLen, p int) int {
	cs := compLen / (6 * p)
	if cs < 128<<10 {
		cs = 128 << 10
	}
	if cs > 4<<20 {
		cs = 4 << 20
	}
	return cs
}

// benchDecompress measures OpenBytes→io.Copy of f at parallelism p
// (0 = all cores) and chunk size cs (0 = scaled to p), optionally
// after importing the fixture's index.
func benchDecompress(b *testing.B, f *fixture, p, cs int, withIndex bool) {
	b.Helper()
	if p == 0 {
		p = runtime.NumCPU()
	}
	if cs == 0 {
		cs = scaledChunk(len(f.comp), p)
	}
	var idx []byte
	if withIndex {
		idx = f.indexFor(b, p)
	}
	b.SetBytes(int64(len(f.raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenBytes(f.comp, WithParallelism(p), WithChunkSize(cs))
		if err != nil {
			b.Fatal(err)
		}
		if withIndex {
			if err := r.ImportIndex(bytes.NewReader(idx)); err != nil {
				b.Fatal(err)
			}
		}
		n, err := io.Copy(io.Discard, r)
		r.Close()
		if err != nil || n != int64(len(f.raw)) {
			b.Fatalf("decoded %d of %d bytes: %v", n, len(f.raw), err)
		}
	}
}

func corePoints() []int {
	pts := []int{1}
	if runtime.NumCPU() >= 4 {
		pts = append(pts, 4)
	}
	if runtime.NumCPU() > 4 {
		pts = append(pts, runtime.NumCPU())
	}
	return pts
}

// --- Figure 7: BitReader -------------------------------------------------

func BenchmarkFig7BitReader(b *testing.B) {
	data := workloads.Random(4<<20, 7)
	for _, bits := range []uint{1, 2, 8, 13, 15, 24, 30} {
		b.Run(byName("bits", int(bits)), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				br := bitio.NewBitReaderBytes(data)
				total := uint64(len(data)) * 8
				var sink uint64
				for pos := uint64(0); pos+uint64(bits) <= total; pos += uint64(bits) {
					v, err := br.Read(bits)
					if err != nil {
						b.Fatal(err)
					}
					sink ^= v
				}
				_ = sink
			}
		})
	}
}

// --- Figure 8: SharedFileReader strided reads ----------------------------

func BenchmarkFig8SharedReader(b *testing.B) {
	data := workloads.Random(64<<20, 8)
	src := filereader.MemoryReader(data)
	shared := filereader.NewShared(src)
	for _, threads := range corePoints() {
		b.Run(byName("threads", threads), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				const chunk = 128 << 10
				errs := make(chan error, threads)
				for t := 0; t < threads; t++ {
					go func(t int) {
						buf := make([]byte, chunk)
						var err error
						for off := int64(t) * chunk; off < int64(len(data)); off += int64(threads) * chunk {
							if _, err = shared.ReadAt(buf, off); err != nil {
								break
							}
						}
						errs <- err
					}(t)
				}
				for t := 0; t < threads; t++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Table 1: filter funnel ----------------------------------------------

func BenchmarkTable1Funnel(b *testing.B) {
	data := workloads.Random(2<<20, 1)
	positions := uint64(len(data))*8 - 2400
	b.SetBytes(int64(positions / 8))
	for i := 0; i < b.N; i++ {
		blockfinder.ScanFunnel(data, positions)
	}
}

// --- Table 2 components live next to their packages; the root view
// --- exercises the two finders on realistic compressed input.

func BenchmarkTable2Finders(b *testing.B) {
	f := getFixture(b, "b64-16M", workloads.Base64, 16<<20, "pigz -6")
	for _, v := range []struct {
		name   string
		finder blockfinder.Finder
		n      int
	}{
		{"DBF-rapidgzip", blockfinder.NewDynamicFinder(), 4 << 20},
		{"DBF-skipLUT", blockfinder.NewSkipLUTFinder(), 2 << 20},
		{"DBF-pugz", blockfinder.NewPugzFinder(), 1 << 20},
		{"NBF", blockfinder.StoredFinder{}, 8 << 20},
	} {
		data := f.comp
		if v.n < len(data) {
			data = data[:v.n]
		}
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				blockfinder.ScanAll(v.finder, data, -1)
			}
		})
	}
}

// --- Figures 9-11: weak-scaling decompression ----------------------------

func benchScaling(b *testing.B, name string, gen func(int, uint64) []byte, pugzOK bool) {
	for _, p := range corePoints() {
		f := getFixture(b, name, gen, 32<<20, "pigz -6")
		b.Run(byName("rapidgzip/P", p), func(b *testing.B) {
			benchDecompress(b, f, p, 0, false)
		})
		b.Run(byName("rapidgzip-index/P", p), func(b *testing.B) {
			benchDecompress(b, f, p, 0, true)
		})
		if pugzOK {
			b.Run(byName("pugz-sync/P", p), func(b *testing.B) {
				b.SetBytes(int64(len(f.raw)))
				for i := 0; i < b.N; i++ {
					if err := pugz.Decompress(f.comp, io.Discard, pugz.Options{
						Threads: p, Sync: true, ChunkSize: 4 * scaledChunk(len(f.comp), p), CheckPrintable: true,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Single-threaded baselines: stdlib flate stands in for igzip.
	f := getFixture(b, name, gen, 32<<20, "pigz -6")
	b.Run("igzip-stdlib/P=1", func(b *testing.B) {
		b.SetBytes(int64(len(f.raw)))
		for i := 0; i < b.N; i++ {
			zr, err := gzip.NewReader(bytes.NewReader(f.comp))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, zr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig9Base64(b *testing.B)   { benchScaling(b, "fig9-b64", workloads.Base64, true) }
func BenchmarkFig10Silesia(b *testing.B) { benchScaling(b, "fig10-sil", workloads.SilesiaLike, false) }
func BenchmarkFig11FASTQ(b *testing.B)   { benchScaling(b, "fig11-fq", workloads.FASTQ, true) }

// --- Figure 12: chunk-size sweep ------------------------------------------

func BenchmarkFig12ChunkSize(b *testing.B) {
	f := getFixture(b, "fig12-b64", workloads.Base64, 48<<20, "pigz -6")
	p := runtime.NumCPU()
	if p > 16 {
		p = 16
	}
	for _, cs := range []int{256 << 10, 1 << 20, 4 << 20, 16 << 20} {
		b.Run(fmtChunk(cs), func(b *testing.B) {
			benchDecompress(b, f, p, cs, false)
		})
	}
}

// --- Table 3: compressor matrix -------------------------------------------

func BenchmarkTable3Compressors(b *testing.B) {
	p := runtime.NumCPU()
	for _, preset := range []string{"gzip -6", "pigz -6", "bgzip -l 6", "bgzip -l 0", "igzip -1", "igzip -0"} {
		f := getFixture(b, "t3-"+preset, workloads.SilesiaLike, 24<<20, preset)
		b.Run(sanitize(preset), func(b *testing.B) {
			benchDecompress(b, f, p, 0, false)
		})
	}
}

// --- Table 4: cross-format comparison --------------------------------------

func BenchmarkTable4Formats(b *testing.B) {
	data := workloads.SilesiaLike(24<<20, 44)
	p := runtime.NumCPU()

	gz := getFixture(b, "t4-gzip", workloads.SilesiaLike, 24<<20, "gzip -6")
	b.Run("gzip-rapidgzip", func(b *testing.B) { benchDecompress(b, gz, p, 0, false) })
	b.Run("gzip-rapidgzip-index", func(b *testing.B) { benchDecompress(b, gz, p, 0, true) })

	bgzf := getFixture(b, "t4-bgzf", workloads.SilesiaLike, 24<<20, "bgzip -l 6")
	b.Run("bgzf-rapidgzip", func(b *testing.B) { benchDecompress(b, bgzf, p, 0, false) })

	bz, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 9, StreamSize: 900_000})
	if err != nil {
		b.Fatal(err)
	}
	// A cold open of bzip2 pays the sizing pass, which decodes every
	// stream once before the parallel decode.
	b.Run("bzip2-incl-sizing", func(b *testing.B) {
		benchDecompress(b, &fixture{raw: data, comp: bz}, p, 0, false)
	})

	pz := lz4x.CompressFrames(data, lz4x.FrameOptions{FrameSize: 1 << 20, BlockSize: 256 << 10})
	b.Run("pzstd-analog-lz4frames", func(b *testing.B) {
		benchDecompress(b, &fixture{raw: data, comp: pz}, p, 0, false)
	})

	lz := lz4x.CompressFrames(data, lz4x.FrameOptions{BlockSize: 256 << 10})
	b.Run("lz4-serial", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			out, err := lz4x.Decompress(lz)
			if err != nil || len(out) != len(data) {
				b.Fatalf("%d bytes, %v", len(out), err)
			}
		}
	})
}

// --- helpers ----------------------------------------------------------------

func byName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func fmtChunk(cs int) string {
	if cs >= 1<<20 {
		return itoa(cs>>20) + "MiB"
	}
	return itoa(cs>>10) + "KiB"
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ':
			out = append(out, '_')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
