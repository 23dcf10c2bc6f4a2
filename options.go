package rapidgzip

import (
	"fmt"
	"runtime"

	"repro/internal/prefetch"
	"repro/internal/spanengine"
)

// strategyFor maps a strategy name to a fresh prefetch.Strategy
// instance (strategies are stateful, so every engine needs its own).
// nil means "the engine's default" (adaptive).
func strategyFor(name string) (prefetch.Strategy, error) {
	switch name {
	case "", "adaptive":
		return nil, nil
	case "fixed":
		return prefetch.NewFixed(), nil
	case "multistream":
		return prefetch.NewMultiStream(), nil
	}
	return nil, fmt.Errorf("rapidgzip: unknown prefetch strategy %q (want adaptive, fixed or multistream)", name)
}

// config is the resolved configuration an Open call operates with.
// Zero values select the defaults.
type config struct {
	parallelism int    // decompression workers; 0 = runtime.NumCPU()
	chunkSize   int    // gzip compressed bytes per work unit; 0 = 4 MiB
	verify      bool   // gzip sequential member-CRC verification
	maxPrefetch int    // in-flight speculative decodes; 0 = per-format default
	cacheSize   int    // span-cache capacity in spans; 0 = per-format default
	strategy    string // prefetch strategy name; validated by WithStrategy
	format      Format // FormatUnknown means sniff the content
	indexFile   string // explicit index to import; implies no discovery
	noDiscovery bool
	inMemory    bool       // load the whole file instead of serving it file-backed
	pool        *CachePool // shared span-cache pool (WithSharedPool); nil = private cache
}

// engine returns the span-engine configuration for one engine build,
// with a fresh strategy instance. Zero cache and prefetch bounds stay
// zero, so each format applies its own defaults.
func (c config) engine() spanengine.Config {
	threads := c.parallelism
	if threads == 0 {
		threads = runtime.NumCPU()
	}
	strat, _ := strategyFor(c.strategy) // WithStrategy rejected unknown names
	cfg := spanengine.Config{
		Threads:     threads,
		CacheSize:   c.cacheSize,
		MaxPrefetch: c.maxPrefetch,
		Strategy:    strat,
	}
	if c.pool != nil {
		cfg.Pool = c.pool.p
	}
	return cfg
}

// errOptNilPool is WithSharedPool's eager validation failure.
var errOptNilPool = fmt.Errorf("rapidgzip: WithSharedPool(nil)")

// An Option configures Open or OpenBytes. Invalid settings (an unknown
// strategy, a negative chunk size, ...) are reported by the
// constructor — each With* function validates eagerly and the first
// error wins.
type Option func(*config) error

func resolve(opts []Option) (config, error) {
	var cfg config
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return config{}, err
		}
	}
	// Cross-option conflicts are checked after the loop — they depend on
	// the combination, not any single call, so order cannot matter.
	if cfg.pool != nil && cfg.cacheSize != 0 {
		return config{}, fmt.Errorf("%w: WithAccessCacheSize has no effect under WithSharedPool (the pool's byte budget replaces the per-archive span count)", ErrConflictingOptions)
	}
	return cfg, nil
}

// WithParallelism sets the number of decompression workers. Zero (the
// default) selects runtime.NumCPU().
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative parallelism %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithChunkSize sets the compressed bytes handed to one worker task.
// Zero selects the paper's 4 MiB default.
func WithChunkSize(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative chunk size %d", n)
		}
		c.chunkSize = n
		return nil
	}
}

// WithVerify enables (or disables) checksum verification where the
// format supports it — gzip member CRC32s during sequential
// consumption; bzip2 and LZ4 verify during every decode when the file
// carries checksums, regardless of this option.
func WithVerify(v bool) Option {
	return func(c *config) error {
		c.verify = v
		return nil
	}
}

// WithMaxPrefetch bounds the number of speculative chunk (or span)
// decodes in flight, for every format. Zero selects the default.
func WithMaxPrefetch(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative prefetch bound %d", n)
		}
		c.maxPrefetch = n
		return nil
	}
}

// WithAccessCacheSize sets the span-cache capacity, in spans, for
// every format (for gzip/BGZF a span is a chunk of the speculative
// pipeline). Zero selects the default.
//
// Since Open serves every format file-backed — the compressed bytes
// are never resident as a whole — this cache is the dominant term of
// an archive's decompressed-side memory budget: peak resident decoded
// bytes are bounded by roughly (AccessCacheSize + MaxPrefetch) × the
// largest span's decompressed size, plus one in-flight compressed
// extent per worker.
//
// Combining this option with WithSharedPool fails with
// ErrConflictingOptions: the pool's byte budget replaces the
// per-archive span count as the cache bound, so a per-archive size
// cannot be honoured there.
func WithAccessCacheSize(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative cache size %d", n)
		}
		c.cacheSize = n
		return nil
	}
}

// WithInMemory loads the whole compressed file into memory at Open and
// serves every decode zero-copy from the resident buffer — the
// pre-file-backed behavior, for every format including gzip/BGZF. It
// only makes sense for files comfortably smaller than RAM on storage
// slow enough that re-reading span extents hurts (network
// filesystems); the default file-backed path needs bounded memory
// regardless of file size. OpenBytes is always in-memory; the option
// is a no-op there.
func WithInMemory() Option {
	return func(c *config) error {
		c.inMemory = true
		return nil
	}
}

// WithStrategy selects the prefetch strategy by name: "adaptive" (the
// default), "fixed", or "multistream". It applies to every format —
// the gzip/BGZF chunk fetcher and the span engine behind bzip2/LZ4/
// zstd consult the same strategy interface. Unknown names fail here,
// at option time — not silently at some later decode.
func WithStrategy(name string) Option {
	return func(c *config) error {
		if _, err := strategyFor(name); err != nil {
			return err
		}
		c.strategy = name
		return nil
	}
}

// WithFormat forces the container format instead of sniffing the
// content — for data whose magic bytes are unavailable (streams with
// stripped headers) or to fail fast when only one format is
// acceptable. Opening a file of a different format then fails with the
// backend's parse error.
func WithFormat(f Format) Option {
	return func(c *config) error {
		switch f {
		case FormatGzip, FormatBGZF, FormatBzip2, FormatLZ4, FormatZstd:
			c.format = f
			return nil
		}
		return fmt.Errorf("%w: cannot force %v", ErrUnsupportedFormat, f)
	}
}

// WithIndexFile imports the index at path during Open, making the
// reader fully indexed from the start (the paper's "(index)" mode):
// seek points with windows for gzip/BGZF, the checkpoint table for
// bzip2/LZ4/zstd — either way the initial scan or sizing pass is
// skipped entirely. It implies WithoutIndexDiscovery. The index must
// match the opened file (format tag, compressed size and source
// fingerprint are all enforced).
func WithIndexFile(path string) Option {
	return func(c *config) error {
		if path == "" {
			return fmt.Errorf("rapidgzip: empty index file path")
		}
		c.indexFile = path
		return nil
	}
}

// WithoutIndexDiscovery disables the automatic import of a sibling
// "<file>.rgzidx" index that Open performs by default for indexable
// formats.
func WithoutIndexDiscovery() Option {
	return func(c *config) error {
		c.noDiscovery = true
		return nil
	}
}
