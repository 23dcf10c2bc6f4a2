// Package core implements the paper's primary contribution: parallel
// decompression of, and constant-time seeking in, arbitrary gzip files
// via a cache-and-parallel-prefetch chunk architecture (paper §3,
// Figures 4 and 5).
//
// The chunk table, the caches and the prefetch pipeline live in
// internal/spanengine — the same core that serves bzip2, LZ4 and zstd.
// This package contributes the gzip codec (codec.go): speculative
// block-finder decodes parked as tentative results, confirmed one
// decode unit at a time at the exact frontier offset — which makes the
// whole design robust against block-finder false positives: a
// misguided speculative result simply never matches a requested key
// and ages out of the pool (§3: "Robustness against false positives
// results from the cache acting as an intermediary with the offset as
// key"). Gzip builds the engines over that codec, from a cold open or
// from an imported seek-point index.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/filereader"
	"repro/internal/gzformat"
	"repro/internal/gzindex"
	"repro/internal/spanengine"
)

// Config tunes the gzip codec. Worker count, cache and prefetch bounds
// and the strategy are the engine's (spanengine.Config), passed to
// each engine build.
type Config struct {
	// ChunkSize is the compressed bytes per work unit (paper default
	// 4 MiB; Figure 12 sweeps this parameter).
	ChunkSize int
	// VerifyChecksums enables gzip CRC32 verification during sequential
	// consumption, combined across chunks with crc32x — the checksum
	// support the paper lists as future work (§6).
	VerifyChecksums bool
	// GuessedRatioLimit aborts a speculative chunk decode whose output
	// exceeds this multiple of the chunk size; the on-demand exact
	// decode (unlimited) remains correct. This is the §1.4 mitigation
	// for worst-case memory usage.
	GuessedRatioLimit int
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 4 << 20
	}
	if c.GuessedRatioLimit <= 0 {
		c.GuessedRatioLimit = 256
	}
	return c
}

// engineDefaults fills the gzip defaults of the engine knobs left zero;
// the engine's own defaults (spanengine.Config) are tighter.
func engineDefaults(c spanengine.Config) spanengine.Config {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.MaxPrefetch <= 0 {
		// The paper holds 2x parallelism; this implementation defaults
		// to 4x because its consumer does more per-chunk work (window
		// copies into the index, CRC bookkeeping) and a deeper pipeline
		// hides the resulting bubbles. Memory stays bounded by
		// MaxPrefetch * chunk output.
		c.MaxPrefetch = 4 * c.Threads
	}
	if c.CacheSize <= 0 {
		// Eagerly resolved chunks wait here until consumption; size it
		// like the prefetch window so none are evicted in flight.
		c.CacheSize = 2*c.Threads + 4
	}
	return c
}

// errNoBlock marks a grid cell that contains no usable block start.
var errNoBlock = errors.New("core: no deflate block found in chunk")

// counters holds the gzip activity counters. They are bumped from
// worker goroutines and the consumer alike, so every field is atomic;
// the struct is owned by Gzip and shared by every codec it builds, so
// the statistics outlive an index import.
type counters struct {
	guessTasks       atomic.Uint64
	guessNoBlock     atomic.Uint64
	guessFalseStarts atomic.Uint64
	finderProbes     atomic.Uint64
	onDemand         atomic.Uint64
	indexed          atomic.Uint64
	consumed         atomic.Uint64
	crcFailures      atomic.Uint64
}

// Stats counts gzip pipeline activity for diagnostics and experiments.
type Stats struct {
	GuessTasks       uint64
	GuessNoBlock     uint64
	GuessFalseStarts uint64 // speculative results that never matched
	// FinderProbes counts block-finder candidate probes across all
	// speculative tasks. It stays exactly zero when a complete index
	// was imported: known chunk offsets make the finder unnecessary.
	FinderProbes    uint64
	OnDemandDecodes uint64
	IndexedDecodes  uint64
	ChunksConsumed  uint64
	CRCFailures     uint64
}

// Gzip is the gzip/BGZF format of one compressed source — the
// GzipChunkFetcher of Figure 5 minus the engine, which it builds: a
// growing engine (or, for BGZF, a complete table from member metadata)
// on a cold open, a checkpoint engine from an imported index. What
// must survive replacing one engine by another lives here: the
// configuration, the activity counters and detected CRC failures.
// Each engine gets its own codec, so an engine replaced by an import
// keeps serving callers that still hold it.
type Gzip struct {
	cfg  Config
	bgzf bool
	cnt  counters
}

// NewGzip validates the first gzip header of src and detects BGZF. It
// reads src directly, so pass the source before wrapping it in the
// SharedFileReader the engines count traffic with: open-time setup
// then stays out of the decode counters.
func NewGzip(src filereader.FileReader, cfg Config) (*Gzip, error) {
	hdr, err := gzformat.ParseHeader(bitio.NewBitReader(src, src.Size()))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Gzip{cfg: cfg.withDefaults(), bgzf: hdr.BGZFBlockSize > 0}, nil
}

// NewEngine builds the engine of a cold open: BGZF files take the
// metadata fast path of §3.4.4 (a complete-table engine); everything
// else runs the growing engine, whose span table extends one confirmed
// decode unit at a time.
func (g *Gzip) NewEngine(src *filereader.SharedFileReader, engCfg spanengine.Config) (*spanengine.Engine, error) {
	engCfg = engineDefaults(engCfg)
	c := newGzipCodec(g, src, engCfg.MaxPrefetch)
	// First-pass confirmation observes every footer, so the index it
	// builds carries the complete set of member marks.
	c.index.MemberMarksComplete = true
	if g.bgzf {
		return spanengine.New(src, c, engCfg)
	}
	return spanengine.NewGrowing(src, c, 0, engCfg)
}

// EngineFromIndex builds an engine from a finalized index, skipping the
// initial decompression pass entirely (§1.3: "The seek point index can
// be exported and imported ... to avoid the decompression time for the
// initial decompression pass"). The caller has checked that ix belongs
// to the source (compressed size, fingerprint); this rebuilds the chunk
// geometry from the seek points. The engine reports CRC verification
// broken from the start if any engine of this Gzip already detected a
// mismatch: an import must not launder a stream that failed.
func (g *Gzip) EngineFromIndex(src *filereader.SharedFileReader, ix *gzindex.Index, engCfg spanengine.Config) (*spanengine.Engine, error) {
	if ix.Len() == 0 {
		return nil, errors.New("core: empty index")
	}
	if ix.Checkpoints != nil {
		if tag := ix.Checkpoints.Format; tag != "gzip" && tag != "bgzf" {
			return nil, fmt.Errorf("core: index checkpoint table is for format %q, not gzip/BGZF", tag)
		}
	}
	n := ix.Len()
	metas := make([]spanMeta, n)
	spans := make([]spanengine.Span, n)
	byOff := make(map[int64]int, n)
	for i := range metas {
		p := ix.Point(i)
		m := spanMeta{
			startBit:      p.CompressedBitOffset,
			startDecomp:   p.UncompressedOffset,
			atMemberStart: p.AtMemberStart,
		}
		if i+1 < n {
			next := ix.Point(i + 1)
			m.endBit = next.CompressedBitOffset
			m.size = next.UncompressedOffset - p.UncompressedOffset
		} else {
			m.endBit = ix.CompressedSize * 8
			m.size = ix.UncompressedSize - p.UncompressedOffset
			m.endIsEOF = true
		}
		for _, me := range ix.MemberEnds(p.CompressedBitOffset) {
			m.members = append(m.members,
				memberMark{absEnd: p.UncompressedOffset + me.RelEnd, crc: me.CRC32})
		}
		metas[i] = m
		s := spanengine.Span{
			CompOff:    int64(m.startBit / 8),
			CompEnd:    int64(m.endBit / 8),
			DecompOff:  int64(m.startDecomp),
			DecompSize: int64(m.size),
		}
		if m.endIsEOF {
			s.CompEnd = int64(ix.CompressedSize)
		}
		if _, dup := byOff[s.CompOff]; dup {
			return nil, fmt.Errorf("core: index entries share start byte %d", s.CompOff)
		}
		byOff[s.CompOff] = i
		spans[i] = s
	}

	engCfg = engineDefaults(engCfg)
	c := newGzipCodec(g, src, engCfg.MaxPrefetch)
	c.metas = metas
	c.byOff = byOff
	c.index = ix
	// Indexes exported by this implementation persist the member marks,
	// restoring full member verification; legacy (v1) indexes do not,
	// and verification then has to lean on the decode results instead.
	c.marksKnown = ix.MemberMarksComplete
	c.eof = true
	c.frontierBit = ix.CompressedSize * 8
	c.frontierDecomp = ix.UncompressedSize
	c.crcBroken = g.cnt.crcFailures.Load() > 0
	return spanengine.NewFromCheckpoints(src, c, spans, 0, engCfg)
}

// codecOf returns the gzip codec of an engine this Gzip built.
func codecOf(eng *spanengine.Engine) *gzipCodec { return eng.Codec().(*gzipCodec) }

// Index returns the seek-point index (with windows) built by eng so
// far; complete it first with eng.EnsureComplete before exporting. The
// index is shared with the codec: callers must not modify it.
func (g *Gzip) Index(eng *spanengine.Engine) *gzindex.Index {
	c := codecOf(eng)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index
}

// CRCStatus reports (verifiedSoFar, failures) for eng. verifiedSoFar
// is false once consumption left sequential order or a mismatch
// occurred; failures counts mismatches over every engine of this Gzip.
func (g *Gzip) CRCStatus(eng *spanengine.Engine) (bool, uint64) { return codecOf(eng).crcStatus() }

// Stats returns the gzip activity counters, summed over every engine
// of this Gzip.
func (g *Gzip) Stats() Stats {
	return Stats{
		GuessTasks:       g.cnt.guessTasks.Load(),
		GuessNoBlock:     g.cnt.guessNoBlock.Load(),
		GuessFalseStarts: g.cnt.guessFalseStarts.Load(),
		FinderProbes:     g.cnt.finderProbes.Load(),
		OnDemandDecodes:  g.cnt.onDemand.Load(),
		IndexedDecodes:   g.cnt.indexed.Load(),
		ChunksConsumed:   g.cnt.consumed.Load(),
		CRCFailures:      g.cnt.crcFailures.Load(),
	}
}
