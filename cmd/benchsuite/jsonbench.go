package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/benchfmt"
	"repro/internal/bzip2x"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// writeJSONBench measures whole-file decompression throughput of every
// format through the public Open API on a generated corpus and writes
// the rows as JSON (schema: internal/benchfmt) — small and fast enough
// for a per-PR CI job, and the input of the benchgate regression gate.
//
// coreCounts selects the parallelism sweep; an empty list measures at
// NumCPU only. With more than one entry, row names gain a "-pN"
// suffix so the gate tracks each point separately.
func writeJSONBench(path string, corpusBytes, repeats int, coreCounts []int) error {
	if repeats < 1 {
		repeats = 1
	}
	if len(coreCounts) == 0 {
		coreCounts = []int{runtime.NumCPU()}
	}
	suffixed := len(coreCounts) > 1
	data := workloads.Base64(corpusBytes, 42)

	type input struct {
		name      string
		comp      []byte
		withIndex bool
		err       error
	}
	var inputs []input

	gz, _, gzErr := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 128 << 10})
	inputs = append(inputs, input{name: "gzip", comp: gz, err: gzErr})
	inputs = append(inputs, input{name: "gzip-index", comp: gz, withIndex: true, err: gzErr})
	bgzf, _, bgzfErr := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	inputs = append(inputs, input{name: "bgzf", comp: bgzf, err: bgzfErr})
	bz, bzErr := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1, StreamSize: 1 << 20})
	inputs = append(inputs, input{name: "bzip2", comp: bz, err: bzErr})
	lz := lz4x.CompressFrames(data, lz4x.FrameOptions{FrameSize: 1 << 20})
	inputs = append(inputs, input{name: "lz4", comp: lz})
	// Multi-frame zstd is §4.9's trivially parallelizable shape; the
	// single-frame row shows what the same bytes cost without it.
	zsMulti := zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, FrameSize: 1 << 20, ContentChecksum: true})
	inputs = append(inputs, input{name: "zstd", comp: zsMulti})
	zsSingle := zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, ContentChecksum: true})
	inputs = append(inputs, input{name: "zstd-1frame", comp: zsSingle})

	report := benchfmt.Report{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	// Cold-open rows: what Open costs before the first byte is served,
	// with and without a sibling RGZIDX04 checkpoint-table index. The
	// formats measured are the ones whose cold open does real work —
	// bzip2 sizes by decoding the whole file, unsized zstd by a
	// sequential decode of every frame — so the -index variants show
	// the span-engine payoff directly.
	openRows, err := coldOpenRows(data, bz, bzErr, repeats, coreCounts, suffixed)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, openRows...)
	// File-backed cold ReadAt: Open(path) with no index, then read the
	// whole decompressed stream positionally — the path where the
	// compressed file stays on disk and every span decode is a pread.
	// LZ4 isolates the pread-per-span cost (its open is a pure header
	// walk); gzip exercises the speculative chunk pipeline on the same
	// file-backed path it now shares with the other formats.
	fbRows, err := fileBackedRows(data, []fileBackedInput{
		{name: "lz4-filebacked-readat", ext: ".lz4", comp: lz, err: nil},
		{name: "gzip-filebacked-readat", ext: ".gz", comp: gz, err: gzErr},
	}, repeats, coreCounts, suffixed)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, fbRows...)
	// HTTP range serving: rgzserve's whole request path (handle cache,
	// shared pool, range grammar, ReadAt fan-out) as one throughput row.
	serveRows, err := serveReadAtRows(lz, len(data), repeats, coreCounts, suffixed)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, serveRows...)
	// Small-fleet serving: thousands of KB-scale archives through a
	// 64-handle cache, with and without a warm-up-primed index store —
	// the open path (admission, classification, index import) as a
	// number, and the warm-up payoff as the gap between the two rows.
	fleetRowsOut, err := fleetRows(repeats, coreCounts, suffixed)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, fleetRowsOut...)
	// The write side: sharded parallel compression throughput at one and
	// four workers (the -w4 row is the scaling evidence — shards are
	// independent, so it should run well past 1.5x the -w1 row), plus the
	// create-then-open row that times a cold reopen of a Create-produced
	// archive with its sidecar — the born-seekable claim as a number.
	compRows, err := compressRows(data, repeats)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, compRows...)
	ctoRows, err := createThenOpenRows(data, repeats)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, ctoRows...)
	for _, in := range inputs {
		for _, threads := range coreCounts {
			res := benchfmt.Result{
				Name:      in.name,
				OutBytes:  len(data),
				InBytes:   len(in.comp),
				Repeats:   repeats,
				WithIndex: in.withIndex,
				Parallel:  threads,
			}
			if suffixed {
				res.Name = fmt.Sprintf("%s-p%d", in.name, threads)
			}
			if in.err != nil {
				res.FailureMsg = in.err.Error()
				report.Results = append(report.Results, res)
				continue
			}
			var index []byte
			var err error
			if in.withIndex {
				index, err = buildIndex(in.comp, threads)
				if err != nil {
					res.FailureMsg = err.Error()
					report.Results = append(report.Results, res)
					continue
				}
			}
			var samples []float64
			var format rapidgzip.Format
			for rep := 0; rep < repeats; rep++ {
				mbps, f, err := runOnce(in.comp, index, threads)
				if err != nil {
					res.FailureMsg = err.Error()
					break
				}
				format = f
				samples = append(samples, mbps)
			}
			if len(samples) == repeats {
				res.Format = format.String()
				// The gate compares best-of-repeats: scheduler noise only
				// ever slows a run down, so the fastest sample is the
				// stablest estimate of what the code can do. The stddev
				// of the whole sample set still records the spread.
				_, res.StdDev = meanStd(samples)
				for _, s := range samples {
					res.MBps = max(res.MBps, s)
				}
			}
			report.Results = append(report.Results, res)
			fmt.Fprintf(os.Stderr, "benchsuite: %-14s %8.1f MB/s ± %.1f (%s, P=%d)\n",
				res.Name, res.MBps, res.StdDev, res.Format, threads)
		}
	}
	return benchfmt.Save(path, report)
}

// coldOpenRows measures Open throughput (MB/s of eventual uncompressed
// content per second of open time) for the sizing-pass formats, cold
// and with an exported index.
func coldOpenRows(data, bz []byte, bzErr error, repeats int, coreCounts []int, suffixed bool) ([]benchfmt.Result, error) {
	zsUnsized := zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, FrameSize: 1 << 20, OmitContentSize: true})
	type openInput struct {
		name      string
		comp      []byte
		withIndex bool
		err       error
	}
	inputs := []openInput{
		{name: "bzip2-coldopen", comp: bz, err: bzErr},
		{name: "bzip2-coldopen-index", comp: bz, withIndex: true, err: bzErr},
		{name: "zstd-unsized-coldopen", comp: zsUnsized},
		{name: "zstd-unsized-coldopen-index", comp: zsUnsized, withIndex: true},
	}
	var rows []benchfmt.Result
	for _, in := range inputs {
		for _, threads := range coreCounts {
			res := benchfmt.Result{
				Name:      in.name,
				OutBytes:  len(data),
				InBytes:   len(in.comp),
				Repeats:   repeats,
				WithIndex: in.withIndex,
				Parallel:  threads,
			}
			if suffixed {
				res.Name = fmt.Sprintf("%s-p%d", in.name, threads)
			}
			if in.err != nil {
				res.FailureMsg = in.err.Error()
				rows = append(rows, res)
				continue
			}
			var ixPath string
			if in.withIndex {
				path, err := exportIndexFile(in.comp, threads)
				if err != nil {
					res.FailureMsg = err.Error()
					rows = append(rows, res)
					continue
				}
				ixPath = path
			}
			var samples []float64
			var format rapidgzip.Format
			for rep := 0; rep < repeats; rep++ {
				mbps, f, err := openOnce(in.comp, len(data), ixPath, threads)
				if err != nil {
					res.FailureMsg = err.Error()
					break
				}
				format = f
				samples = append(samples, mbps)
			}
			if ixPath != "" {
				os.Remove(ixPath)
			}
			if len(samples) == repeats {
				res.Format = format.String()
				_, res.StdDev = meanStd(samples)
				for _, s := range samples {
					res.MBps = max(res.MBps, s)
				}
			}
			rows = append(rows, res)
			fmt.Fprintf(os.Stderr, "benchsuite: %-27s %8.1f MB/s ± %.1f (%s, P=%d)\n",
				res.Name, res.MBps, res.StdDev, res.Format, threads)
		}
	}
	return rows, nil
}

// compressRows measures parallel compression throughput (MB/s of
// uncompressed input consumed) through the public NewWriter API for the
// two sharded encoders, each at one and at four workers. The fixed
// worker counts — rather than the coreCounts sweep — keep the w1/w4
// pair present in every report, so the scaling ratio is always
// checkable against the acceptance floor.
func compressRows(data []byte, repeats int) ([]benchfmt.Result, error) {
	type compressInput struct {
		name   string
		format rapidgzip.Format
		level  int
	}
	inputs := []compressInput{
		// Level 6 matches the gzip decode rows' corpus; level 1 matches
		// the zstd decode rows.
		{name: "gzip-parallel-compress", format: rapidgzip.FormatGzip, level: 6},
		{name: "zstd-parallel-compress", format: rapidgzip.FormatZstd, level: 1},
	}
	workerCounts := []int{1, 4}
	var rows []benchfmt.Result
	for _, in := range inputs {
		results := make([]benchfmt.Result, len(workerCounts))
		samples := make([][]float64, len(workerCounts))
		for wi, workers := range workerCounts {
			results[wi] = benchfmt.Result{
				Name:     fmt.Sprintf("%s-w%d", in.name, workers),
				OutBytes: len(data),
				Repeats:  repeats,
				Parallel: workers,
			}
		}
		// Interleave the worker counts within each repeat rather than
		// finishing one row before starting the next: on shared
		// machines throughput drifts on a seconds-to-minutes scale, and
		// back-to-back sampling keeps the w1/w4 pair — whose ratio is
		// the scaling evidence — inside the same machine state.
		for rep := 0; rep < repeats; rep++ {
			for wi, workers := range workerCounts {
				if results[wi].FailureMsg != "" {
					continue
				}
				mbps, compLen, err := compressOnce(data, in.format, in.level, workers)
				if err != nil {
					results[wi].FailureMsg = err.Error()
					continue
				}
				results[wi].InBytes = compLen
				samples[wi] = append(samples[wi], mbps)
			}
		}
		// Report the whole pair from the single least-throttled repeat
		// (maximum combined throughput) instead of taking each row's
		// independent best: per-row maxima can come from different
		// machine states, which turns the w1/w4 ratio into a comparison
		// of two unrelated throttle windows.
		bestRep, bestSum := -1, 0.0
		for rep := 0; rep < repeats; rep++ {
			sum := 0.0
			ok := true
			for wi := range workerCounts {
				if rep >= len(samples[wi]) {
					ok = false
					break
				}
				sum += samples[wi][rep]
			}
			if ok && sum > bestSum {
				bestRep, bestSum = rep, sum
			}
		}
		for wi, workers := range workerCounts {
			res := &results[wi]
			if len(samples[wi]) == repeats && bestRep >= 0 {
				res.Format = in.format.String()
				_, res.StdDev = meanStd(samples[wi])
				res.MBps = samples[wi][bestRep]
			}
			rows = append(rows, *res)
			fmt.Fprintf(os.Stderr, "benchsuite: %-27s %8.1f MB/s ± %.1f (%s, W=%d)\n",
				res.Name, res.MBps, res.StdDev, res.Format, workers)
		}
	}
	return rows, nil
}

// compressOnce measures one compression throughput sample, repeating
// whole-corpus encodes until compressSampleTime — deliberately longer
// than minSampleTime, because one whole-corpus encode alone is long
// enough to "satisfy" the floor while still being a single draw from a
// noisy scheduler, and the w1/w4 ratio is gated on these rows. The
// forced collection decouples the sample from whatever garbage the
// preceding rows left behind — without it the GC debt of a decode row
// can land mid-encode and skew the pair it happens to hit.
func compressOnce(data []byte, format rapidgzip.Format, level, workers int) (float64, int, error) {
	runtime.GC()
	const compressSampleTime = 4 * minSampleTime
	var total int64
	var compLen int
	start := time.Now()
	for {
		var sink countingWriter
		w, err := rapidgzip.NewWriter(&sink,
			rapidgzip.WithWriterFormat(format),
			rapidgzip.WithWriterParallelism(workers),
			rapidgzip.WithLevel(level))
		if err != nil {
			return 0, 0, err
		}
		if _, err := w.Write(data); err != nil {
			return 0, 0, err
		}
		if err := w.Close(); err != nil {
			return 0, 0, err
		}
		compLen = int(sink.n)
		sink.n = 0
		total += int64(len(data))
		if time.Since(start) >= compressSampleTime {
			break
		}
	}
	sec := time.Since(start).Seconds()
	return float64(total) / 1e6 / sec, compLen, nil
}

// countingWriter discards its input, keeping only the byte count.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// createThenOpenRows times the cold reopen of an archive Create just
// produced: the sidecar is auto-discovered, so Open must import the
// checkpoint table and be ready to serve — zero sizing passes — and the
// row's MB/s is the eventual output per second of that open. It is the
// counter-asserted acceptance scenario as a tracked number.
func createThenOpenRows(data []byte, repeats int) ([]benchfmt.Result, error) {
	threads := runtime.NumCPU()
	dir, err := os.MkdirTemp("", "benchsuite-create")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := dir + "/corpus.gz"
	w, err := rapidgzip.Create(path, rapidgzip.WithWriterParallelism(threads))
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	compLen := int(w.Stats().CompressedBytes)

	res := benchfmt.Result{
		Name:      "create-then-open",
		OutBytes:  len(data),
		InBytes:   compLen,
		Repeats:   repeats,
		WithIndex: true,
		Parallel:  threads,
	}
	var samples []float64
	for rep := 0; rep < repeats; rep++ {
		mbps, err := createThenOpenOnce(path, len(data), threads)
		if err != nil {
			res.FailureMsg = err.Error()
			break
		}
		samples = append(samples, mbps)
	}
	if len(samples) == repeats {
		res.Format = rapidgzip.FormatGzip.String()
		_, res.StdDev = meanStd(samples)
		for _, s := range samples {
			res.MBps = max(res.MBps, s)
		}
	}
	fmt.Fprintf(os.Stderr, "benchsuite: %-27s %8.1f MB/s ± %.1f (%s, P=%d)\n",
		res.Name, res.MBps, res.StdDev, res.Format, threads)
	return []benchfmt.Result{res}, nil
}

// createThenOpenOnce measures one cold-reopen sample, repeated until
// minSampleTime; it fails if any reopen needed a sizing pass.
func createThenOpenOnce(path string, outBytes, threads int) (float64, error) {
	var total int64
	start := time.Now()
	for {
		a, err := rapidgzip.Open(path, rapidgzip.WithParallelism(threads))
		if err != nil {
			return 0, err
		}
		sizing := a.Stats().SizingPasses
		a.Close()
		if sizing != 0 {
			return 0, fmt.Errorf("create-then-open took %d sizing passes, want 0", sizing)
		}
		total += int64(outBytes)
		if time.Since(start) >= minSampleTime {
			break
		}
	}
	sec := time.Since(start).Seconds()
	return float64(total) / 1e6 / sec, nil
}

// fileBackedInput is one corpus for the file-backed cold-ReadAt rows.
type fileBackedInput struct {
	name string
	ext  string
	comp []byte
	err  error
}

// fileBackedRows measures the file-backed cold ReadAt path: each corpus
// is written to a real temp file, opened without an index, and the
// decompressed stream is read positionally in 1 MiB slices — every span
// decode preads its own compressed extent from disk.
func fileBackedRows(data []byte, inputs []fileBackedInput, repeats int, coreCounts []int, suffixed bool) ([]benchfmt.Result, error) {
	var rows []benchfmt.Result
	for _, in := range inputs {
		if in.err != nil {
			for _, threads := range coreCounts {
				res := benchfmt.Result{
					Name:       in.name,
					OutBytes:   len(data),
					Repeats:    repeats,
					Parallel:   threads,
					FailureMsg: in.err.Error(),
				}
				if suffixed {
					res.Name = fmt.Sprintf("%s-p%d", res.Name, threads)
				}
				rows = append(rows, res)
			}
			continue
		}
		f, err := os.CreateTemp("", "benchsuite-*"+in.ext)
		if err != nil {
			return nil, err
		}
		path := f.Name()
		_, err = f.Write(in.comp)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
			return nil, err
		}
		for _, threads := range coreCounts {
			res := benchfmt.Result{
				Name:     in.name,
				OutBytes: len(data),
				InBytes:  len(in.comp),
				Repeats:  repeats,
				Parallel: threads,
			}
			if suffixed {
				res.Name = fmt.Sprintf("%s-p%d", res.Name, threads)
			}
			var samples []float64
			var format rapidgzip.Format
			for rep := 0; rep < repeats; rep++ {
				mbps, f, err := fileBackedReadAtOnce(path, len(data), threads)
				if err != nil {
					res.FailureMsg = err.Error()
					break
				}
				format = f
				samples = append(samples, mbps)
			}
			if len(samples) == repeats {
				res.Format = format.String()
				_, res.StdDev = meanStd(samples)
				for _, s := range samples {
					res.MBps = max(res.MBps, s)
				}
			}
			rows = append(rows, res)
			fmt.Fprintf(os.Stderr, "benchsuite: %-27s %8.1f MB/s ± %.1f (%s, P=%d)\n",
				res.Name, res.MBps, res.StdDev, res.Format, threads)
		}
		os.Remove(path)
	}
	return rows, nil
}

// fileBackedReadAtOnce measures one cold open-and-ReadAt sweep over the
// file at path, repeated until minSampleTime.
func fileBackedReadAtOnce(path string, outBytes, threads int) (float64, rapidgzip.Format, error) {
	var total int64
	var format rapidgzip.Format
	buf := make([]byte, 1<<20)
	start := time.Now()
	for {
		a, err := rapidgzip.Open(path, rapidgzip.WithParallelism(threads), rapidgzip.WithoutIndexDiscovery())
		if err != nil {
			return 0, rapidgzip.FormatUnknown, err
		}
		format = a.Format()
		var off int64
		for off < int64(outBytes) {
			n, err := a.ReadAt(buf, off)
			if n > 0 {
				off += int64(n)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				a.Close()
				return 0, rapidgzip.FormatUnknown, err
			}
		}
		a.Close()
		if off != int64(outBytes) {
			return 0, rapidgzip.FormatUnknown, fmt.Errorf("file-backed ReadAt consumed %d of %d bytes", off, outBytes)
		}
		total += off
		if time.Since(start) >= minSampleTime {
			break
		}
	}
	sec := time.Since(start).Seconds()
	return float64(total) / 1e6 / sec, format, nil
}

// openOnce measures one cold-open throughput sample: eventual output
// bytes divided by the time Open (and Close) takes, repeated until
// minSampleTime — the open itself serves no content.
func openOnce(comp []byte, outBytes int, ixPath string, threads int) (float64, rapidgzip.Format, error) {
	opts := []rapidgzip.Option{rapidgzip.WithParallelism(threads)}
	if ixPath != "" {
		opts = append(opts, rapidgzip.WithIndexFile(ixPath))
	}
	var total int64
	var format rapidgzip.Format
	start := time.Now()
	for {
		a, err := rapidgzip.OpenBytes(comp, opts...)
		if err != nil {
			return 0, rapidgzip.FormatUnknown, err
		}
		format = a.Format()
		a.Close()
		total += int64(outBytes)
		if time.Since(start) >= minSampleTime {
			break
		}
	}
	sec := time.Since(start).Seconds()
	return float64(total) / 1e6 / sec, format, nil
}

// exportIndexFile opens comp cold, exports its checkpoint-table index
// to a temp file, and returns the path.
func exportIndexFile(comp []byte, threads int) (string, error) {
	a, err := rapidgzip.OpenBytes(comp, rapidgzip.WithParallelism(threads))
	if err != nil {
		return "", err
	}
	defer a.Close()
	f, err := os.CreateTemp("", "benchsuite-*.rgzidx")
	if err != nil {
		return "", err
	}
	err = a.ExportIndex(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// minSampleTime is the floor for one throughput sample: fast formats
// (LZ4 chews 32 MiB in tens of milliseconds) repeat the decode until
// the clock has something real to measure, or scheduler noise swamps
// the number and the regression gate turns flaky.
const minSampleTime = 300 * time.Millisecond

// runOnce measures one decompression throughput sample (MB/s of
// decompressed output) through the public API, decoding as many times
// as minSampleTime requires.
func runOnce(comp, index []byte, threads int) (float64, rapidgzip.Format, error) {
	var total int64
	var format rapidgzip.Format
	start := time.Now()
	for {
		a, err := rapidgzip.OpenBytes(comp, rapidgzip.WithParallelism(threads))
		if err == nil && index != nil {
			if err = a.ImportIndex(bytes.NewReader(index)); err != nil {
				a.Close()
			}
		}
		if err != nil {
			return 0, rapidgzip.FormatUnknown, err
		}
		n, err := io.Copy(io.Discard, a)
		format = a.Format()
		a.Close()
		if err != nil {
			return 0, rapidgzip.FormatUnknown, err
		}
		total += n
		if time.Since(start) >= minSampleTime {
			break
		}
	}
	sec := time.Since(start).Seconds()
	return float64(total) / 1e6 / sec, format, nil
}

// buildIndex exports a seek-point index for comp.
func buildIndex(comp []byte, threads int) ([]byte, error) {
	a, err := rapidgzip.OpenBytes(comp, rapidgzip.WithParallelism(threads))
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

func meanStd(samples []float64) (float64, float64) {
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	var variance float64
	for _, s := range samples {
		variance += (s - mean) * (s - mean)
	}
	return mean, math.Sqrt(variance / float64(len(samples)))
}
