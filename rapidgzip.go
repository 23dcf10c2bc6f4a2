// Package rapidgzip provides parallel decompression of, and constant-
// time random access ("seeking") into, compressed files — gzip first
// and foremost, plus BGZF, bzip2, LZ4 and Zstandard instantiations of
// the same cache-plus-prefetch chunk-fetcher architecture (all five
// formats run on one engine, internal/spanengine; gzip adds its
// speculative chunk pipeline as a codec on top).
//
// It is a from-scratch Go reproduction of the system described in
// "Rapidgzip: Parallel Decompression and Seeking in Gzip Files Using
// Cache Prefetching" (Knespel & Brunst, HPDC 2023): the compressed file
// is split into chunks, a false-positive-tolerant block finder locates
// Deflate block candidates inside each chunk, worker goroutines decode
// the chunks speculatively into a 16-bit intermediate format whose
// marker symbols stand in for the unknown 32 KiB LZ window, and a
// cache-plus-prefetcher architecture stitches the speculative results
// back into the exact decompressed stream — falling back to an
// on-demand decode whenever a speculative result turns out to have
// started at a false positive.
//
// Basic usage — Open sniffs the format from the content, so the same
// call handles gzip, BGZF, bzip2, LZ4 and zstd:
//
//	f, err := rapidgzip.Open("big.tar.gz")
//	if err != nil { ... }
//	defer f.Close()
//	io.Copy(dst, f) // decompresses on all cores
//
// A seek-point index is built on the fly. Once present (or imported
// from a previous run — a sibling "big.tar.gz.rgzidx" is picked up
// automatically), any offset of the decompressed stream is reachable
// in constant time:
//
//	f.Seek(1<<40, io.SeekStart)
//	f.Read(buf)
//
// Formats differ in what they can do; Capabilities reports it:
//
//	if f.Capabilities().RandomAccess { ... }
//
// Open takes functional options (WithParallelism, WithChunkSize,
// WithVerify, WithStrategy, WithFormat, WithIndexFile, ...).
package rapidgzip

import (
	"io"
	"io/fs"

	"repro/internal/tarfs"
)

// Stats counts backend activity. Every format runs on the shared span
// engine, so the sizing/span/prefetch/source-read counters are live for
// all of them; the speculative-decode counters on top are specific to
// the gzip/BGZF chunk pipeline (the only format whose chunk boundaries
// must be guessed). Zeros mean the machinery genuinely never ran — an
// index import is visible as FinderProbes == 0 (gzip/BGZF) or
// SizingPasses == 0 (every format).
type Stats struct {
	// --- gzip/BGZF chunk pipeline ------------------------------------
	GuessTasks       uint64
	GuessNoBlock     uint64
	GuessFalseStarts uint64
	// FinderProbes counts block-finder candidate probes across all
	// speculative tasks. It stays exactly zero when a complete index
	// was imported: known chunk offsets make the finder unnecessary.
	FinderProbes    uint64
	OnDemandDecodes uint64
	IndexedDecodes  uint64
	ChunksConsumed  uint64
	CRCFailures     uint64

	// --- span engine (all formats) -----------------------------------
	// SizingPasses counts codec sizing scans (0 after an index import,
	// 1 after a cold open — for gzip the "pass" is the growing span
	// table itself, for BGZF the member-metadata scan).
	SizingPasses uint64
	// SizingDecodes counts full span decodes the sizing pass needed
	// (bzip2 decodes everything once; LZ4 and sized zstd need none).
	SizingDecodes uint64
	// SpanDecodes counts span decodes after construction, on-demand
	// and prefetched alike.
	SpanDecodes uint64
	// PrefetchProposed counts strategy proposals before filtering
	// (deterministic per access sequence); PrefetchIssued counts
	// speculative span decodes actually dispatched; PrefetchJoined
	// counts accesses that joined one instead of decoding.
	PrefetchProposed, PrefetchIssued, PrefetchJoined uint64
	// SpanCacheHits / SpanCacheMisses / SpanCacheEvictions mirror the
	// engine's span cache.
	SpanCacheHits, SpanCacheMisses, SpanCacheEvictions uint64
	// SourceReads counts positional reads the span engine issued
	// against the compressed source (sizing-pass windows and span-
	// extent preads alike), and SourceBytesRead the bytes they
	// returned. For a file-backed archive these bound the compressed
	// bytes ever made resident: SourceBytesRead staying far below the
	// file size on a random-access workload is the larger-than-RAM
	// property, measured. Memory-backed archives count one logical
	// read per zero-copy span extent.
	SourceReads, SourceBytesRead uint64
}

// TarFS interprets any Archive's decompressed stream as a TAR archive
// and returns a read-only filesystem over its members. It works for
// every format Open handles — a .tar.bz2 or .tar.lz4 serves files the
// same way a .tar.gz does, at whatever random-access granularity the
// format's Capabilities admit.
func TarFS(a Archive) (fs.FS, error) { return tarfs.Open(a) }

// WriteTar streams src into w as a TAR archive — the write-side
// complement of TarFS. Pointed at a Writer from Create or NewWriter it
// produces a .tar.gz / .tar.zst whose members TarFS later serves with
// random access:
//
//	w, _ := rapidgzip.Create("backup.tar.gz")
//	rapidgzip.WriteTar(w, os.DirFS("/data"))
//	w.Close()
//
// WriteTar does not close w; call w.Close to finalize the archive and
// its index sidecar.
func WriteTar(w io.Writer, src fs.FS) error { return tarfs.Create(w, src) }
