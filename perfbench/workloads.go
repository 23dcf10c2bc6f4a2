package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/bzip2x"
	"repro/internal/gzipw"
	"repro/internal/workloads"
	"repro/internal/workloads/fleet"
	"repro/internal/zstdx"
)

const (
	parallelism = 2         // the host's nproc; also the caller and connection count
	chunkSize   = 512 << 10 // compressed bytes per gzip/BGZF task: several tasks per worker at these sizes
	readSize    = 64 << 10
)

// workload is one seeded input set plus how the run spends its time.
// Every workload runs the same three phases — sequential Open→WriteTo
// of each format, a closed ReadAt loop, an open HTTP loop — so every
// end-to-end metric is measured everywhere; the workload decides the
// archive shapes, the sizes relative to the caches, and which phase
// gets most of the run.
type workload struct {
	name string
	// Uncompressed bytes of the four archives, in formats order. A
	// one-frame zstd or one-stream bzip2 archive is a single span, so it
	// stays well below the ReadAt pool.
	sizes [4]int
	// indexed makes every open import a sidecar. Otherwise the
	// sequential phase opens cold, with no index.
	indexed bool
	// bzip2Stream > 0 writes pbzip2-shaped multi-stream bzip2 of that
	// many bytes per stream; 0 writes one stream like the bzip2 CLI.
	bzip2Stream int
	// zstdCreate writes the zstd archive with rapidgzip.Create (1 MiB
	// frames plus sidecar); otherwise one frame with content size and
	// checksum, like the zstd CLI.
	zstdCreate bool
	// poolShare is the ReadAt phase's CachePool budget over the four
	// archives' decompressed bytes: below one, so the data is larger
	// than the cache, yet large enough that the spans of the hottest
	// blocks fit. Most reads then hit, so the median read is a hit and
	// the p99 a miss, on every workload.
	poolShare float64
	// fleet is the number of KB-scale archives served beside the four;
	// maxOpen the server's handle cache capacity.
	fleet, maxOpen int
	// share is the fraction of the run given to the seq, readat and
	// serve phases.
	share [3]float64
	// rate is the serve phase's fixed request rate; mix the shares of
	// ranged GETs, whole fleet GETs and If-None-Match revalidations.
	rate float64
	mix  [3]float64
}

const (
	mib = 1 << 20
	kib = 1 << 10
	// latencyLimitMs is the p99 an HTTP rate must meet to count towards
	// http_max_rps.
	latencyLimitMs = 50
)

var allWorkloads = []*workload{
	{
		name:      "silesia-seq",
		sizes:     [4]int{12 * mib, 8 * mib, 384 * kib, 2 * mib},
		poolShare: 0.3, maxOpen: 64,
		share: [3]float64{0.35, 0.45, 0.2},
		rate:  1200, mix: [3]float64{0.85, 0, 0.15},
	},
	{
		name:    "readat-mixed",
		sizes:   [4]int{8 * mib, 8 * mib, 600 * kib, 8 * mib},
		indexed: true, bzip2Stream: 300_000, zstdCreate: true,
		poolShare: 0.25, maxOpen: 64,
		share: [3]float64{0.25, 0.35, 0.4},
		rate:  1000, mix: [3]float64{0.85, 0, 0.15},
	},
	{
		name:    "serve-mixed",
		sizes:   [4]int{4 * mib, 4 * mib, 300 * kib, 4 * mib},
		indexed: true, bzip2Stream: 300_000, zstdCreate: true,
		poolShare: 0.5, fleet: 96, maxOpen: 24,
		share: [3]float64{0.25, 0.15, 0.6},
		rate:  600, mix: [3]float64{0.55, 0.3, 0.15},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) totalBytes() int64 {
	var n int64
	for _, s := range w.sizes {
		n += int64(s)
	}
	return n
}

func (w *workload) poolBudget() int64 { return int64(w.poolShare * float64(w.totalBytes())) }

// archive is one generated compressed file with its expected content.
type archive struct {
	format  string
	name    string // root-relative
	path    string
	sidecar string
	content []byte
	crc     uint32
}

// corpus is everything setup produced.
type corpus struct {
	root     string // archives (and the fleet) live here
	store    string // index store for the fleet's sidecars
	archives []*archive
	fleet    []fleet.File
}

// servedBytes is the decompressed size of everything the server
// serves.
func (c *corpus) servedBytes() int64 {
	var n int64
	for _, a := range c.archives {
		n += int64(len(a.content))
	}
	for _, f := range c.fleet {
		n += int64(len(f.Content))
	}
	return n
}

// setup generates the workload's inputs under dir: four archives with
// sidecars, and the fleet with its sidecars in an index store.
func (w *workload) setup(dir string, seed uint64) (*corpus, error) {
	c := &corpus{root: filepath.Join(dir, "root"), store: filepath.Join(dir, "store")}
	if err := os.MkdirAll(c.root, 0o755); err != nil {
		return nil, err
	}
	exts := map[string]string{"gzip": ".gz", "bgzf": ".bgz", "bzip2": ".bz2", "zstd": ".zst"}
	for i, f := range formats {
		content := workloads.SilesiaLike(w.sizes[i], seed*4+uint64(i))
		a := &archive{format: f, name: "data-" + f + exts[f], content: content, crc: crc32.ChecksumIEEE(content)}
		a.path = filepath.Join(c.root, a.name)
		a.sidecar = a.path + rapidgzip.IndexSuffix
		if err := w.writeArchive(a); err != nil {
			return nil, fmt.Errorf("setup %s: %w", a.name, err)
		}
		c.archives = append(c.archives, a)
	}
	if w.fleet > 0 {
		files, err := fleet.Write(filepath.Join(c.root, "fleet"), w.fleet, seed)
		if err != nil {
			return nil, err
		}
		for i := range files {
			files[i].Name = "fleet/" + files[i].Name
			side := filepath.Join(c.store, filepath.FromSlash(files[i].Name)+rapidgzip.IndexSuffix)
			if err := exportSidecar(filepath.Join(c.root, filepath.FromSlash(files[i].Name)), side); err != nil {
				return nil, fmt.Errorf("setup %s: %w", files[i].Name, err)
			}
		}
		c.fleet = files
	}
	return c, nil
}

// writeArchive compresses a.content into a.path in the shape the
// workload asks for, then leaves an index sidecar beside it.
func (w *workload) writeArchive(a *archive) error {
	var comp []byte
	var err error
	switch a.format {
	case "gzip":
		// stdlib compress/gzip at level 6: the shape GNU gzip writes.
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, 6)
		if _, err = zw.Write(a.content); err == nil {
			err = zw.Close()
		}
		comp = buf.Bytes()
	case "bgzf":
		opts, perr := gzipw.Preset("bgzip -l 6")
		if perr != nil {
			return perr
		}
		comp, _, err = gzipw.Compress(a.content, opts)
	case "bzip2":
		comp, err = bzip2x.Compress(a.content, bzip2x.WriterOptions{Level: 9, StreamSize: w.bzip2Stream})
	case "zstd":
		if w.zstdCreate {
			zw, cerr := rapidgzip.Create(a.path, rapidgzip.WithWriterFormat(rapidgzip.FormatZstd),
				rapidgzip.WithWriterParallelism(parallelism), rapidgzip.WithContentChecksum(true))
			if cerr != nil {
				return cerr
			}
			if _, err = zw.Write(a.content); err != nil {
				zw.Close()
				return err
			}
			return zw.Close() // Close writes the sidecar
		}
		comp = zstdx.CompressFrames(a.content, zstdx.FrameOptions{Level: 3, ContentChecksum: true})
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(a.path, comp, 0o644); err != nil {
		return err
	}
	return exportSidecar(a.path, a.sidecar)
}

// exportSidecar opens path cold, completes its index and writes it to
// sidecar.
func exportSidecar(path, sidecar string) error {
	a, err := rapidgzip.Open(path, rapidgzip.WithParallelism(parallelism),
		rapidgzip.WithChunkSize(chunkSize), rapidgzip.WithoutIndexDiscovery())
	if err != nil {
		return err
	}
	defer a.Close()
	if err := a.BuildIndex(); err != nil {
		return err
	}
	return rapidgzip.ExportIndexFile(a, sidecar)
}

// crcWriter checks WriteTo output against the expected content while
// timing each Write callback.
type crcWriter struct {
	crc    uint32
	n      int64
	onCall func(start, end int64)
}

func (w *crcWriter) Write(p []byte) (int, error) {
	start := now()
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	w.n += int64(len(p))
	if w.onCall != nil {
		w.onCall(start, now())
	}
	return len(p), nil
}

var _ io.Writer = (*crcWriter)(nil)

// listWorkloads prints what each workload runs and how it relates to
// the caches.
func listWorkloads(w io.Writer) {
	fmt.Fprintf(w, "workloads (parallelism %d; %d ReadAt callers and %d HTTP connections, one process):\n",
		parallelism, parallelism, parallelism)
	for _, wl := range allWorkloads {
		open := "cold, unindexed"
		if wl.indexed {
			open = "sidecar imported"
		}
		fmt.Fprintf(w, "  %s: SilesiaLike content; gzip %s, bgzf %s, bzip2 %s, zstd %s; seq opens %s\n",
			wl.name, mb(wl.sizes[0]), mb(wl.sizes[1]), mb(wl.sizes[2]), mb(wl.sizes[3]), open)
		fmt.Fprintf(w, "    time shares: seq %.0f%%, readat %.0f%% (closed loop, %d callers), serve %.0f%% (open loop, %.0f req/s fixed, p99 limit %d ms)\n",
			wl.share[0]*100, wl.share[1]*100, parallelism, wl.share[2]*100, wl.rate, latencyLimitMs)
		fmt.Fprintf(w, "    ReadAt CachePool %s = %.0f%% of the %s decompressed; the server's pool holds everything; handle cache %d for %d archives; mix ranged/whole/304 = %.2f/%.2f/%.2f (assumed, see README)\n",
			mb(int(wl.poolBudget())), wl.poolShare*100, mb(int(wl.totalBytes())), wl.maxOpen, 4+wl.fleet, wl.mix[0], wl.mix[1], wl.mix[2])
	}
}

func mb(n int) string { return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20)) }
