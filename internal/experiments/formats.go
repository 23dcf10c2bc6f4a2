package experiments

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"

	"repro"
	"repro/internal/bzip2x"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// Table3 decompresses the Silesia-like corpus compressed by every
// compressor emulation and level of the paper's Table 3, using all
// cores.
func Table3(cfg Config) error {
	cfg = cfg.WithDefaults()
	cores := clipCores(cfg.Cores)
	p := cores[len(cores)-1]
	size := cfg.BytesPerCore * p
	header(cfg.Out, fmt.Sprintf("Table 3: bandwidth vs compressor, silesia-like %d MiB, %d cores", size>>20, p))
	data := workloads.SilesiaLike(size, 33)

	presets := []string{
		"bgzip -l -1", "bgzip -l 0", "bgzip -l 3", "bgzip -l 6", "bgzip -l 9",
		"gzip -1", "gzip -3", "gzip -6", "gzip -9",
		"igzip -0", "igzip -1", "igzip -2", "igzip -3",
		"pigz -1", "pigz -3", "pigz -6", "pigz -9",
	}
	fmt.Fprintf(cfg.Out, "%-14s %-12s %s\n", "compressor", "ratio", "bandwidth MB/s")
	for _, preset := range presets {
		opts, err := gzipw.Preset(preset)
		if err != nil {
			return err
		}
		comp, _, err := gzipw.Compress(data, opts)
		if err != nil {
			return err
		}
		ratio := float64(len(data)) / float64(len(comp))
		m := measure(cfg.Repeats, func() (int64, error) { return rapidgzipRun(comp, p, nil) })
		fmt.Fprintf(cfg.Out, "%-14s %-12.2f %s\n", preset, ratio, m)
	}
	return nil
}

// Table4 compares formats and decompressors at P = 1, 16, max (paper
// Table 4). The bzip2 and pzstd rows run the product (OpenBytes and
// WriteTo): lbzip2 is stood in for by the stream-parallel bzip2
// engine, whose cold open pays a sizing pass that decodes every
// stream once; the pzstd row is real multi-frame Zstandard, the
// format whose per-frame metadata makes parallel decompression
// trivial (§4.9). lz4 runs the serial lz4x decoder.
func Table4(cfg Config) error {
	cfg = cfg.WithDefaults()
	cores := clipCores(cfg.Cores)
	maxP := cores[len(cores)-1]
	ps := []int{1}
	if maxP >= 16 {
		ps = append(ps, 16)
	}
	if maxP != 1 && maxP != 16 {
		ps = append(ps, maxP)
	}

	header(cfg.Out, "Table 4: cross-format comparison")
	fmt.Fprintf(cfg.Out, "%-10s %-8s %-26s %-4s %s\n", "format", "ratio", "decompressor", "P", "bandwidth MB/s")

	for _, p := range ps {
		// Weak scaling like the paper: 2 Silesia tarballs per core.
		data := workloads.SilesiaLike(cfg.BytesPerCore*p, 44)

		// gzip + {rapidgzip, rapidgzip(index), igzip-stdlib}.
		gz, _, err := gzipw.Compress(data, presetOrDie("gzip -6"))
		if err != nil {
			return err
		}
		gzRatio := ratioOf(data, gz)
		m := measure(cfg.Repeats, func() (int64, error) { return rapidgzipRun(gz, p, nil) })
		fmt.Fprintf(cfg.Out, "%-10s %-8.2f %-26s %-4d %s\n", "gzip", gzRatio, "rapidgzip", p, m)
		idx, err := buildIndex(gz, p)
		if err != nil {
			return err
		}
		m = measure(cfg.Repeats, func() (int64, error) { return rapidgzipRun(gz, p, idx) })
		fmt.Fprintf(cfg.Out, "%-10s %-8.2f %-26s %-4d %s\n", "gzip", gzRatio, "rapidgzip (index)", p, m)
		if p == 1 {
			m = measure(cfg.Repeats, func() (int64, error) {
				zr, err := gzip.NewReader(bytes.NewReader(gz))
				if err != nil {
					return 0, err
				}
				var d discard
				_, err = io.Copy(&d, zr)
				return d.n, err
			})
			fmt.Fprintf(cfg.Out, "%-10s %-8.2f %-26s %-4d %s\n", "gzip", gzRatio, "igzip (stdlib flate)", p, m)
		}

		// BGZF: metadata-chunked gzip, the trivially parallel format.
		bg, _, err := gzipw.Compress(data, presetOrDie("bgzip -l 6"))
		if err != nil {
			return err
		}
		m = measure(cfg.Repeats, func() (int64, error) { return rapidgzipRun(bg, p, nil) })
		fmt.Fprintf(cfg.Out, "%-10s %-8.2f %-26s %-4d %s\n", "bgzf", ratioOf(data, bg), "rapidgzip (bgzf path)", p, m)

		// bzip2 multi-stream + lbzip2-style parallel decompression.
		bz, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 9, StreamSize: 900_000})
		if err != nil {
			return err
		}
		m = measure(cfg.Repeats, func() (int64, error) {
			return openRun(bz, nil, rapidgzip.WithParallelism(p))
		})
		fmt.Fprintf(cfg.Out, "%-10s %-8.2f %-26s %-4d %s\n", "bzip2", ratioOf(data, bz), "bzip2x (incl. sizing pass)", p, m)

		// Multi-frame Zstandard: the paper's pzstd row (§4.9), no longer
		// a stand-in — per-frame content sizes make the decode
		// trivially parallelizable.
		pz := zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, FrameSize: 1 << 20, ContentChecksum: true})
		m = measure(cfg.Repeats, func() (int64, error) {
			return openRun(pz, nil, rapidgzip.WithParallelism(p))
		})
		fmt.Fprintf(cfg.Out, "%-10s %-8.2f %-26s %-4d %s\n", "pzstd", ratioOf(data, pz), "pzstd (zstdx frames)", p, m)

		// Single-frame LZ4, serial (the lz4 row; only meaningful at P=1).
		if p == 1 {
			lz := lz4x.CompressFrames(data, lz4x.FrameOptions{BlockSize: 256 << 10})
			m = measure(cfg.Repeats, func() (int64, error) {
				out, err := lz4x.Decompress(lz)
				return int64(len(out)), err
			})
			fmt.Fprintf(cfg.Out, "%-10s %-8.2f %-26s %-4d %s\n", "lz4", ratioOf(data, lz), "lz4x (serial)", p, m)
		}
	}
	fmt.Fprintf(cfg.Out, "(pzstd: multi-frame Zstandard via internal/zstdx. host cores: %d)\n", runtime.NumCPU())
	return nil
}

func ratioOf(data, comp []byte) float64 {
	return float64(len(data)) / float64(len(comp))
}

// All runs every experiment in paper order.
func All(cfg Config) error {
	for _, f := range []func(Config) error{Fig7, Fig8, Table1, Table2, Fig9, Fig10, Fig11, Fig12, Table3, Table4} {
		if err := f(cfg); err != nil {
			return err
		}
	}
	return nil
}

// ByName runs one experiment by its paper label.
func ByName(name string, cfg Config) error {
	m := map[string]func(Config) error{
		"fig7": Fig7, "fig8": Fig8, "fig9": Fig9, "fig10": Fig10,
		"fig11": Fig11, "fig12": Fig12,
		"table1": Table1, "table2": Table2, "table3": Table3, "table4": Table4,
		"all": All,
	}
	f, ok := m[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (fig7-12, table1-4, all)", name)
	}
	return f(cfg)
}
