package experiments

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"repro"
	"repro/internal/deflate"
	"repro/internal/gzipw"
	"repro/internal/pugz"
	"repro/internal/workloads"
)

// generator produces n deterministic workload bytes.
type generator func(n int, seed uint64) []byte

// Fig9 is the weak-scaling benchmark on base64-encoded random data
// (paper Figure 9; pigz-style compression, per-core scaled file size).
func Fig9(cfg Config) error {
	return runScaling(cfg, "Figure 9: decompression scaling, base64 random data", workloads.Base64, true)
}

// Fig10 is the weak-scaling benchmark on the Silesia-like corpus
// (paper Figure 10; pugz is excluded there because it cannot process
// bytes outside 9-126 — here the row shows the error instead).
func Fig10(cfg Config) error {
	return runScaling(cfg, "Figure 10: decompression scaling, Silesia-like corpus", workloads.SilesiaLike, true)
}

// Fig11 is the weak-scaling benchmark on FASTQ data (paper Figure 11).
func Fig11(cfg Config) error {
	return runScaling(cfg, "Figure 11: decompression scaling, FASTQ", workloads.FASTQ, true)
}

func runScaling(cfg Config, title string, gen generator, includePugz bool) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, title)
	cores := clipCores(cfg.Cores)
	maxP := cores[len(cores)-1]

	// One dataset at maximum size; per-P runs compress a prefix, like
	// the paper's per-core concatenation (weak scaling).
	full := gen(cfg.BytesPerCore*maxP, 9)

	// Single-threaded baselines, each on one core's worth of data.
	base := full[:cfg.BytesPerCore]
	baseComp, _, err := gzipw.Compress(base, presetOrDie("pigz -6"))
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "single-threaded baselines (%d MiB):\n", len(base)>>20)
	m := measure(cfg.Repeats, func() (int64, error) {
		out, err := deflate.DecompressGzip(baseComp)
		return int64(len(out)), err
	})
	fmt.Fprintf(cfg.Out, "  %-28s %s\n", "gzip (serial custom)", m)
	m = measure(cfg.Repeats, func() (int64, error) {
		zr, err := gzip.NewReader(bytes.NewReader(baseComp))
		if err != nil {
			return 0, err
		}
		var d discard
		_, err = io.Copy(&d, zr)
		return d.n, err
	})
	fmt.Fprintf(cfg.Out, "  %-28s %s\n", "igzip (stdlib flate)", m)
	m = measure(cfg.Repeats, func() (int64, error) { return pigzSim(baseComp) })
	fmt.Fprintf(cfg.Out, "  %-28s %s\n", "pigz (pipelined serial)", m)

	fmt.Fprintf(cfg.Out, "%-6s %-26s %-26s %-26s %-26s\n",
		"cores", "rapidgzip (no index)", "rapidgzip (index)", "pugz (sync)", "pugz")
	for _, p := range cores {
		data := full[:cfg.BytesPerCore*p]
		comp, _, err := gzipw.Compress(data, presetOrDie("pigz -6"))
		if err != nil {
			return err
		}
		noIdx := measure(cfg.Repeats, func() (int64, error) { return rapidgzipRun(comp, p, nil) })
		idxBuf, err := buildIndex(comp, p)
		var withIdx Measurement
		if err != nil {
			withIdx = Measurement{Err: err}
		} else {
			withIdx = measure(cfg.Repeats, func() (int64, error) { return rapidgzipRun(comp, p, idxBuf) })
		}
		var sync, unsync Measurement
		if includePugz {
			sync = measure(cfg.Repeats, func() (int64, error) { return pugzRun(comp, p, true) })
			unsync = measure(cfg.Repeats, func() (int64, error) { return pugzRun(comp, p, false) })
		}
		fmt.Fprintf(cfg.Out, "%-6d %-26s %-26s %-26s %-26s\n", p, noIdx, withIdx, sync, unsync)
	}
	return nil
}

// Fig12 sweeps the chunk size at fixed parallelism (paper Figure 12).
func Fig12(cfg Config) error {
	cfg = cfg.WithDefaults()
	cores := clipCores(cfg.Cores)
	p := cores[len(cores)-1]
	if p > 16 {
		p = 16 // the paper uses 16 cores
	}
	header(cfg.Out, fmt.Sprintf("Figure 12: chunk-size sweep, base64 data, %d cores", p))
	data := workloads.Base64(cfg.Fig12Bytes, 12)
	comp, _, err := gzipw.Compress(data, presetOrDie("pigz -6"))
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%-14s %-26s %-26s\n", "chunk size", "rapidgzip", "pugz (sync)")
	for _, cs := range []int{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20} {
		if cs > len(comp) {
			break
		}
		rg := measure(cfg.Repeats, func() (int64, error) { return rapidgzipRunChunk(comp, p, cs) })
		pz := measure(cfg.Repeats, func() (int64, error) {
			var d discard
			err := pugz.Decompress(comp, &d, pugz.Options{Threads: p, ChunkSize: cs, Sync: true, CheckPrintable: true})
			return d.n, err
		})
		fmt.Fprintf(cfg.Out, "%-14s %-26s %-26s\n", fmtSize(cs), rg, pz)
	}
	return nil
}

// --- runners -------------------------------------------------------------

// scaledChunk miniaturizes the paper's 4 MiB default chunk size: the
// evaluation files here are orders of magnitude smaller than the
// paper's 512 MB/core, so the chunk size shrinks proportionally to
// keep many chunks per worker (the paper's regime). Figure 12 sweeps
// the parameter explicitly.
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

func rapidgzipRun(comp []byte, p int, index []byte) (int64, error) {
	return openRun(comp, index, rapidgzip.WithParallelism(p), rapidgzip.WithChunkSize(scaledChunk(len(comp), p)))
}

func rapidgzipRunChunk(comp []byte, p, chunkSize int) (int64, error) {
	return openRun(comp, nil, rapidgzip.WithParallelism(p), rapidgzip.WithChunkSize(chunkSize))
}

// openRun decompresses comp through the public OpenBytes path, after
// importing index when it is non-nil, and returns the bytes written.
func openRun(comp, index []byte, opts ...rapidgzip.Option) (int64, error) {
	a, err := rapidgzip.OpenBytes(comp, opts...)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	if index != nil {
		if err := a.ImportIndex(bytes.NewReader(index)); err != nil {
			return 0, err
		}
	}
	var d discard
	_, err = a.WriteTo(&d)
	return d.n, err
}

func buildIndex(comp []byte, p int) ([]byte, error) {
	a, err := rapidgzip.OpenBytes(comp, rapidgzip.WithParallelism(p), rapidgzip.WithChunkSize(scaledChunk(len(comp), p)))
	if err != nil {
		return nil, err
	}
	defer a.Close()
	var buf bytes.Buffer
	if err := a.ExportIndex(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func pugzRun(comp []byte, p int, sync bool) (int64, error) {
	var d discard
	// CheckPrintable is pugz's defining restriction (§1.2): it must be
	// on for the faithful comparison — Figure 10 excludes pugz exactly
	// because it errors out on bytes outside 9..126. pugz needs chunks
	// ~4-8x larger than rapidgzip (its block finder is slower, Fig 12).
	cs := 4 * scaledChunk(len(comp), p)
	err := pugz.Decompress(comp, &d, pugz.Options{Threads: p, Sync: sync, ChunkSize: cs, CheckPrintable: true})
	return d.n, err
}

// pigzSim mimics pigz's decompression concurrency model: decompression
// on one goroutine, writing on another (pigz cannot parallelize the
// inflate itself, §4.4).
func pigzSim(comp []byte) (int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return 0, err
	}
	ch := make(chan []byte, 8)
	done := make(chan int64)
	go func() {
		var n int64
		for b := range ch {
			n += int64(len(b))
		}
		done <- n
	}()
	buf := make([]byte, 1<<20)
	for {
		n, err := zr.Read(buf)
		if n > 0 {
			b := make([]byte, n)
			copy(b, buf[:n])
			ch <- b
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			close(ch)
			<-done
			return 0, err
		}
	}
	close(ch)
	return <-done, nil
}

func presetOrDie(name string) gzipw.Options {
	opts, err := gzipw.Preset(name)
	if err != nil {
		panic(err)
	}
	return opts
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d MiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%d KiB", n>>10)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
