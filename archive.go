package rapidgzip

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"

	"repro/internal/bzip2x"
	"repro/internal/core"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/lz4x"
	"repro/internal/spanengine"
	"repro/internal/zstdx"
)

// Archive is the format-agnostic face of the package: one interface
// over the decompressed stream of a gzip, BGZF, bzip2, LZ4 or zstd
// file, whichever format Open detected. All methods are safe for
// concurrent use.
//
// Every format persists an index: gzip/BGZF export seek points with
// windows, bzip2/LZ4/zstd export their checkpoint tables — either way,
// reopening with the index skips the initial scan or sizing pass.
type Archive interface {
	io.Reader
	io.Seeker
	io.ReaderAt
	io.WriterTo
	io.Closer

	// Size returns the decompressed size, completing whatever scan the
	// format needs first.
	Size() (int64, error)
	// DecompressedSize reports the decompressed size when it is already
	// known without any decoding — always for bzip2/LZ4/zstd (the sizing
	// pass ran at open) and for gzip/BGZF once the chunk table is
	// complete (index imported, BGZF metadata scan, or a finished first
	// pass). ok=false means answering would cost a decode; callers that
	// must stay cheap (a server emitting Content-Length) branch on it
	// instead of calling Size.
	DecompressedSize() (size int64, ok bool)
	// BuildIndex completes the archive's seek checkpoints for the whole
	// file, making every subsequent Seek/ReadAt constant-time where the
	// format allows it.
	BuildIndex() error
	// ExportIndex serialises the seek-point index or checkpoint table.
	ExportIndex(w io.Writer) error
	// ImportIndex installs a previously exported index.
	ImportIndex(rd io.Reader) error
	// Stats returns a snapshot of activity counters.
	Stats() Stats
	// Format reports the detected (or forced) container format.
	Format() Format
	// Capabilities reports what this archive can actually do.
	Capabilities() Capabilities
}

// IndexSuffix is the sibling-file extension Open probes for index
// auto-discovery: "file.gz" → "file.gz.rgzidx".
const IndexSuffix = ".rgzidx"

// Open opens the compressed file at path behind one format-agnostic
// front door: the content's magic bytes select the format (gzip,
// BGZF, bzip2, LZ4 or zstd — WithFormat overrides), and the returned
// Archive serves parallel decompression and, where the format allows,
// checkpointed random access. Content that matches no supported magic
// fails with ErrUnsupportedFormat; a file whose bytes cannot be read
// at all (a directory, a truncated or vanished file) fails with
// ErrSourceRead.
//
// Every format is file-backed: the compressed bytes stay on disk and
// each decode preads only the extents it needs, so archives larger
// than RAM open and serve random access with bounded resident memory
// (WithInMemory restores the old load-it-all behavior for small files
// on slow storage).
//
// A sibling "path.rgzidx" index saved by a previous run is imported
// automatically when present and valid (disable with
// WithoutIndexDiscovery, force a specific file with WithIndexFile).
// For gzip/BGZF the import skips the initial decompression pass; for
// bzip2/LZ4/zstd it skips the sizing pass.
func Open(path string, opts ...Option) (Archive, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	src, err := filereader.OpenFile(path)
	if err != nil {
		return nil, err
	}
	a, err := openArchive(src, path, cfg)
	if err != nil {
		src.Close()
		return nil, err
	}
	if a.fileBacked {
		a.owned = src
	} else {
		// WithInMemory copied the data out; the file is done.
		src.Close()
	}
	return a, nil
}

// OpenBytes opens an in-memory compressed buffer with the same
// sniffing dispatch as Open. No index auto-discovery (there is no
// sibling file), but WithIndexFile still works for every format.
func OpenBytes(data []byte, opts ...Option) (Archive, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return openArchive(filereader.MemoryReader(data), "", cfg)
}

// openArchive opens src as an archive of the sniffed or forced format.
// path is only used to locate a sibling index ("" disables discovery).
func openArchive(src filereader.FileReader, path string, cfg config) (*archive, error) {
	format := cfg.format
	if format == FormatUnknown {
		prefix := make([]byte, SniffLen)
		n, rerr := src.ReadAt(prefix, 0)
		format = DetectFormat(prefix[:n])
		if format == FormatUnknown {
			// A real read failure is an I/O problem, not a format
			// verdict — callers branching on ErrUnsupportedFormat must
			// not mistake a flaky disk (or a directory opened as a
			// file) for a wrong file type. (EOF just means the file is
			// shorter than the sniff window.)
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				return nil, fmt.Errorf("%w: sniffing input: %w", ErrSourceRead, rerr)
			}
			// Classify here, before any codec sees the data: an empty
			// or undersized file must fail with the typed sniff error,
			// not a short-read error from deeper in a decoder.
			if n == 0 {
				return nil, fmt.Errorf("%w: empty input", ErrUnsupportedFormat)
			}
			return nil, fmt.Errorf("%w: %d-byte prefix matches no supported magic", ErrUnsupportedFormat, n)
		}
	}
	if cfg.inMemory {
		// Opt-in legacy behavior, same for every format: load everything
		// once, then serve decodes zero-copy from the resident buffer.
		if _, mem := filereader.Bytes(src); !mem {
			data, err := filereader.ReadAll(src)
			if err != nil {
				return nil, sourceErr(err)
			}
			src = filereader.MemoryReader(data)
		}
	}
	// Open-time setup (fingerprint, gzip header validation) reads the
	// raw source before the counting wrapper goes on: SourceReads then
	// reports engine traffic only, so a reopen from a persisted index
	// performs zero counted reads before the first access.
	fp, err := gzindex.ComputeFingerprint(src, src.Size())
	if err != nil {
		// Fingerprinting only reads bytes, so any failure is a source
		// I/O problem (a directory opened as a file, a file that shrank
		// under us) — never a format verdict.
		return nil, fmt.Errorf("%w: fingerprinting input: %w", ErrSourceRead, err)
	}
	_, mem := filereader.Bytes(src)
	a := &archive{src: filereader.NewShared(src), fileBacked: !mem, format: format, fp: fp, cfg: cfg}
	if format == FormatGzip || format == FormatBGZF {
		if a.gz, err = core.NewGzip(src, core.Config{ChunkSize: cfg.chunkSize, VerifyChecksums: cfg.verify}); err != nil {
			return nil, err
		}
	}
	if cfg.indexFile != "" {
		// An explicit index must work; failure is the caller's answer.
		if a.eng, err = a.engineFromIndexFile(cfg.indexFile); err != nil {
			return nil, err
		}
		return a, nil
	}
	if !cfg.noDiscovery && path != "" {
		if _, err := os.Stat(path + IndexSuffix); err == nil {
			// A sibling index is an optimisation: import it when valid,
			// fall back to a normal scan when stale, corrupt, or built
			// for a different file.
			if a.eng, err = a.engineFromIndexFile(path + IndexSuffix); err == nil {
				return a, nil
			}
		}
	}
	if a.eng, err = a.newEngine(nil); err != nil {
		return nil, sourceErr(err)
	}
	return a, nil
}

// sourceErr maps a filereader I/O failure to the public typed error.
// Format-level errors (corrupt headers, missing magics) pass through
// untouched: they mean the bytes were readable but wrong, which is a
// different caller branch.
func sourceErr(err error) error {
	if errors.Is(err, filereader.ErrIO) {
		return fmt.Errorf("%w: %w", ErrSourceRead, err)
	}
	return err
}

// closedErr maps the internal closed-state errors a read can surface —
// the engine's own gate or a pread on a file descriptor that Close won
// the race for — onto the public ErrClosed, so a caller racing Close
// against ReadAt gets one typed answer regardless of which layer
// noticed first. Other errors pass through untouched.
func closedErr(err error) error {
	if errors.Is(err, spanengine.ErrClosed) || errors.Is(err, fs.ErrClosed) {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return err
}

// archive is the one Archive implementation: a cursor and an index
// lifecycle over a span engine. Formats differ only in how the engine
// is built (newEngine), in what an exported index carries beyond the
// checkpoint table (the gzip seek points and windows), in their
// Capabilities, and in the gzip pipeline counters.
type archive struct {
	src        *filereader.SharedFileReader // compressed source; every engine counts its traffic here
	owned      io.Closer                    // the file Open opened, closed after the engines
	fileBacked bool                         // false when the source is a resident buffer
	format     Format
	fp         gzindex.Fingerprint // source fingerprint, checked on import and written on export
	cfg        config              // kept to build engines for imports (keeps the shared pool)
	gz         *core.Gzip          // gzip/BGZF codec state; nil for the other formats

	cursor sync.Mutex // serialises Read, Seek and WriteTo
	pos    int64

	mu  sync.Mutex
	eng *spanengine.Engine
	// retired holds engines replaced by ImportIndex. They stay open
	// until Close, so a caller that took one just before the swap
	// finishes against it instead of hitting a closed engine.
	retired []*spanengine.Engine
	closed  bool
}

// current returns the engine serving new calls. Callers use it without
// holding a lock: a replaced engine stays open until Close.
func (a *archive) current() *spanengine.Engine {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.eng
}

// newEngine builds an engine over the source: from ix when non-nil
// (checked by engineFromIndex), skipping the scan, otherwise by the
// format's sizing pass (gzip: a growing table; BGZF: the
// member-metadata walk).
func (a *archive) newEngine(ix *gzindex.Index) (*spanengine.Engine, error) {
	cfg := a.cfg.engine()
	if a.gz != nil {
		if ix != nil {
			return a.gz.EngineFromIndex(a.src, ix, cfg)
		}
		return a.gz.NewEngine(a.src, cfg)
	}
	codec := a.spanCodec(cfg.Threads)
	if ix == nil {
		return spanengine.New(a.src, codec, cfg)
	}
	ct := ix.Checkpoints
	spans := make([]spanengine.Span, len(ct.Spans))
	for i, s := range ct.Spans {
		spans[i] = spanengine.Span{CompOff: s.CompOff, CompEnd: s.CompEnd, DecompOff: s.DecompOff, DecompSize: s.DecompSize}
	}
	return spanengine.NewFromCheckpoints(a.src, codec, spans, ct.Flags, cfg)
}

// spanCodec returns the codec of a bzip2, LZ4 or zstd archive; threads
// parallelizes the bzip2 sizing pass.
func (a *archive) spanCodec(threads int) spanengine.Codec {
	switch a.format {
	case FormatBzip2:
		return bzip2x.Codec{Threads: threads}
	case FormatLZ4:
		return lz4x.Codec{}
	}
	return zstdx.Codec{}
}

// engineFromIndex checks that ix fits the format and was exported for
// this source, and builds an engine from it.
func (a *archive) engineFromIndex(ix *gzindex.Index) (*spanengine.Engine, error) {
	if a.gz == nil {
		ct := ix.Checkpoints
		if ct == nil {
			return nil, fmt.Errorf("%w: index carries no checkpoint table for %v", ErrNoIndexSupport, a.format)
		}
		if tag := a.spanCodec(0).FormatTag(); ct.Format != tag {
			return nil, fmt.Errorf("rapidgzip: index checkpoint table is for format %q, want %q", ct.Format, tag)
		}
	}
	if err := ix.CheckSource(a.src.Size(), a.fp); err != nil {
		return nil, err
	}
	eng, err := a.newEngine(ix)
	return eng, sourceErr(err)
}

// engineFromIndexFile reads the index at path and builds an engine
// from it.
func (a *archive) engineFromIndexFile(path string) (*spanengine.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The file holds nothing but the index, so buffering is safe and
	// spares the varint-level deserializer per-byte file reads.
	ix, err := gzindex.Read(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	return a.engineFromIndex(ix)
}

// Read implements io.Reader on the decompressed stream. It returns
// io.EOF only with n == 0, on the call after the last byte.
func (a *archive) Read(p []byte) (int, error) {
	a.cursor.Lock()
	defer a.cursor.Unlock()
	n, err := a.current().ReadAt(p, a.pos)
	a.pos += int64(n)
	if n > 0 && err == io.EOF {
		err = nil
	}
	return n, closedErr(err)
}

// Seek implements io.Seeker on the decompressed stream. Seeking only
// moves the cursor; decompression happens on the next Read.
// io.SeekEnd completes the span table first: the decompressed size of
// a gzip file is only known after scanning it.
func (a *archive) Seek(offset int64, whence int) (int64, error) {
	a.cursor.Lock()
	defer a.cursor.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = a.pos
	case io.SeekEnd:
		size, err := a.current().TotalSize()
		if err != nil {
			return 0, closedErr(err)
		}
		base = size
	default:
		return 0, fmt.Errorf("rapidgzip: bad whence %d", whence)
	}
	target := base + offset
	if target < 0 {
		return 0, fmt.Errorf("rapidgzip: negative seek position %d", target)
	}
	a.pos = target
	return target, nil
}

// ReadAt implements io.ReaderAt without disturbing the Read cursor.
// Concurrent ReadAt calls share the engine's span cache — the access
// pattern of a mounted TAR archive.
func (a *archive) ReadAt(p []byte, off int64) (int, error) {
	n, err := a.current().ReadAt(p, off)
	return n, closedErr(err)
}

// WriteTo implements io.WriterTo: the fast path io.Copy takes for
// whole-file decompression. It streams span contents in order from the
// cursor, growing the gzip span table as it goes; each access feeds
// the prefetch strategy, so upcoming spans decode on the worker pool
// while earlier ones are written.
func (a *archive) WriteTo(w io.Writer) (int64, error) {
	a.cursor.Lock()
	defer a.cursor.Unlock()
	a.AdviseSequentialRead()
	eng := a.current()
	var written int64
	for {
		i, err := eng.SpanAt(a.pos)
		if err == io.EOF {
			return written, nil
		}
		if err != nil {
			return written, closedErr(err)
		}
		data, err := eng.SpanContent(i)
		if err != nil {
			return written, closedErr(err)
		}
		off, _ := eng.SpanExtent(i)
		n, err := w.Write(data[a.pos-off:])
		written += int64(n)
		a.pos += int64(n)
		if err != nil {
			return written, err
		}
	}
}

// Size returns the decompressed size, completing the span table first
// if it is still growing.
func (a *archive) Size() (int64, error) {
	size, err := a.current().TotalSize()
	return size, closedErr(err)
}

// DecompressedSize implements Archive: the size is free once the span
// table is complete — always for bzip2/LZ4/zstd/BGZF, for gzip after an
// index import or a finished first pass.
func (a *archive) DecompressedSize() (int64, bool) {
	eng := a.current()
	if !eng.Complete() {
		return 0, false
	}
	return eng.Size(), true
}

// AdviseSequentialRead hints the OS that the compressed file is about
// to be read front to back. No-op for memory-backed archives and
// platforms without posix_fadvise.
func (a *archive) AdviseSequentialRead() {
	if a.fileBacked {
		filereader.AdviseSequential(a.src, 0, a.src.Size())
	}
}

// BuildIndex completes the span table for the whole file, making every
// subsequent Seek/ReadAt constant-time where the format allows it.
func (a *archive) BuildIndex() error { return closedErr(a.current().EnsureComplete()) }

// ExportIndex serialises the index: the engine's checkpoint table, plus
// the seek points and windows for gzip/BGZF. A later open with the
// index (explicit, or discovered as a sibling) skips the initial scan
// or sizing pass entirely.
func (a *archive) ExportIndex(w io.Writer) error {
	eng := a.current()
	if err := eng.EnsureComplete(); err != nil {
		return closedErr(err)
	}
	ix := *gzindex.New(0)
	if a.gz != nil {
		ix = *a.gz.Index(eng)
	}
	ix.Finalized = true
	ix.CompressedSize = uint64(a.src.Size())
	ix.UncompressedSize = uint64(eng.Size())
	ix.SourceFP = &a.fp
	spans := eng.Checkpoints()
	ct := &gzindex.CheckpointTable{Format: eng.Codec().FormatTag(), Flags: eng.Flags()}
	ct.Spans = make([]gzindex.Checkpoint, len(spans))
	for i, s := range spans {
		ct.Spans[i] = gzindex.Checkpoint{CompOff: s.CompOff, CompEnd: s.CompEnd, DecompOff: s.DecompOff, DecompSize: s.DecompSize}
	}
	ix.Checkpoints = ct
	_, err := ix.WriteTo(w)
	return err
}

// ImportIndex installs an index previously written by ExportIndex,
// replacing the engine with one built from the index; exactly the
// index bytes are consumed from rd. The index must belong to the same
// compressed data (format tag, compressed size and source fingerprint
// are all enforced). Calls in flight finish on the replaced engine.
func (a *archive) ImportIndex(rd io.Reader) error {
	ix, err := gzindex.Read(rd)
	if err != nil {
		return err
	}
	eng, err := a.engineFromIndex(ix)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		eng.Close()
		return ErrClosed
	}
	a.retired = append(a.retired, a.eng)
	a.eng = eng
	return nil
}

// Stats returns a snapshot of the current engine's counters plus, for
// gzip/BGZF, the chunk-pipeline counters of the archive's lifetime.
func (a *archive) Stats() Stats {
	e := a.current().Stats()
	s := Stats{
		SizingPasses:       e.SizingPasses,
		SizingDecodes:      e.SizingDecodes,
		SpanDecodes:        e.SpanDecodes,
		PrefetchProposed:   e.PrefetchProposed,
		PrefetchIssued:     e.PrefetchIssued,
		PrefetchJoined:     e.PrefetchJoined,
		SpanCacheHits:      e.CacheHits,
		SpanCacheMisses:    e.CacheMisses,
		SpanCacheEvictions: e.Evictions,
		SourceReads:        e.SourceReads,
		SourceBytesRead:    e.SourceBytesRead,
	}
	if a.gz != nil {
		g := a.gz.Stats()
		s.GuessTasks = g.GuessTasks
		s.GuessNoBlock = g.GuessNoBlock
		s.GuessFalseStarts = g.GuessFalseStarts
		s.FinderProbes = g.FinderProbes
		s.OnDemandDecodes = g.OnDemandDecodes
		s.IndexedDecodes = g.IndexedDecodes
		s.ChunksConsumed = g.ChunksConsumed
		s.CRCFailures = g.CRCFailures
	}
	return s
}

// CRCVerified reports whether checksum verification is still intact
// and how many mismatches were seen. For gzip/BGZF (with WithVerify)
// it returns (false, n) once a member CRC32 mismatched, and (false, 0)
// once consumption left sequential order (verification is then
// skipped, not failed). bzip2, LZ4 and zstd verify during every decode
// and fail the read on a mismatch, so they report (true, 0); whether
// the file carries checksums at all is Capabilities().Verify.
func (a *archive) CRCVerified() (bool, uint64) {
	if a.gz == nil {
		return true, 0
	}
	return a.gz.CRCStatus(a.current())
}

// Close releases the engines' worker pools and then the file, for
// archives from Open. Calls still in flight fail with ErrClosed; a
// second Close returns an error matching ErrClosed.
func (a *archive) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("%w: Close called twice", ErrClosed)
	}
	a.closed = true
	engs := append(a.retired, a.eng)
	a.retired = nil
	a.mu.Unlock()
	for _, e := range engs {
		e.Close()
	}
	// The compressed file outlives every engine, so it closes last.
	if a.owned != nil {
		return a.owned.Close()
	}
	return nil
}

// Format reports the detected (or forced) container format.
func (a *archive) Format() Format { return a.format }

// Capabilities reports what the archive can do. gzip/BGZF can do
// everything. The other formats seek and index always; random access,
// parallel decode and prefetching need more than one span, and for
// zstd a table that came from metadata: an unsized file was sized by a
// sequential decode on open (an index import lifts that demotion —
// the table is metadata then).
func (a *archive) Capabilities() Capabilities {
	if a.gz != nil {
		return Capabilities{Seek: true, RandomAccess: true, Parallel: true, Index: true, Verify: true, Prefetch: true}
	}
	eng := a.current()
	multi := eng.NumSpans() > 1
	verify := true // the bzip2 decoder checks block CRCs on every decode
	switch a.format {
	case FormatLZ4:
		verify = eng.Flags()&lz4x.FlagChecksummed != 0
	case FormatZstd:
		verify = eng.Flags()&zstdx.FlagChecksummed != 0
		multi = multi && (eng.Flags()&zstdx.FlagMetadataSized != 0 || eng.Stats().SizingPasses == 0)
	}
	return Capabilities{Seek: true, Index: true, RandomAccess: multi, Parallel: multi, Prefetch: multi, Verify: verify}
}

var _ Archive = (*archive)(nil)
