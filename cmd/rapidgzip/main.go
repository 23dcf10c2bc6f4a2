// Command rapidgzip decompresses compressed files in parallel,
// mirroring the command-line interface of the paper's tool:
//
//	rapidgzip -P 16 -c big.tar.gz > big.tar
//	rapidgzip -P 16 --export-index big.gzidx big.tar.gz
//	rapidgzip --import-index big.gzidx -c big.tar.gz > big.tar
//	rapidgzip --count-lines big.log.gz
//	rapidgzip -c reads.fastq.bz2 > reads.fastq   # format is sniffed
//	rapidgzip --count-lines logs.tar.zst         # multi-frame zstd in parallel
//	rapidgzip --format lz4 -c blob > blob.out    # ...or forced
//
// With --compress the data flows the other way: the file is compressed
// in parallel shards (gzip by default; --format bgzf or zstd for the
// others) and an .rgzidx sidecar is written next to the output, so the
// archive reopens with zero sizing passes and full random access:
//
//	rapidgzip --compress -P 16 big.tar              # -> big.tar.gz + .rgzidx
//	rapidgzip --compress --format zstd big.tar      # -> big.tar.zst + .rgzidx
//	rapidgzip --compress --level 9 -c big.tar > big.tar.gz   # stdout, no sidecar
//
// The input format (gzip, BGZF, bzip2, LZ4, zstd) is detected from the
// content's magic bytes; --format overrides the detection. A sibling
// "<FILE>.rgzidx" index saved by --export-index is picked up
// automatically on later runs (disable with --no-index-discovery).
//
// Every input format is served file-backed: the compressed file stays
// on disk and each decode preads only the span extents it needs, so
// inputs larger than RAM work (--in-memory restores the old
// load-it-all behavior; --stats prints the pread counters).
//
// With --export-index, the index built during decompression is saved —
// seek points with windows for gzip/BGZF, the checkpoint table for
// bzip2/LZ4/zstd. Importing it later skips the initial pass: for gzip
// that doubles throughput (no two-stage decoding) and balances the
// workload; for the span-engine formats it eliminates the sizing pass
// (for bzip2, a full decode of the file) before the first byte is
// served.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rapidgzip:", err)
		os.Exit(1)
	}
}

// outSuffixes maps a detected format to the extensions stripped from
// the input name to derive the default output name.
var outSuffixes = map[rapidgzip.Format][]string{
	rapidgzip.FormatGzip:  {".gz", ".gzip"},
	rapidgzip.FormatBGZF:  {".gz", ".bgz", ".bgzf"},
	rapidgzip.FormatBzip2: {".bz2", ".bzip2"},
	rapidgzip.FormatLZ4:   {".lz4"},
	rapidgzip.FormatZstd:  {".zst", ".zstd"},
}

func run() error {
	parallel := flag.Int("P", runtime.NumCPU(), "decompression threads")
	chunkSize := flag.Int("chunk-size", 4<<20, "compressed bytes per chunk")
	toStdout := flag.Bool("c", false, "write to standard output")
	outPath := flag.String("o", "", "output file (default: input minus its compression suffix)")
	verify := flag.Bool("verify", false, "verify gzip CRC32 checksums")
	countLines := flag.Bool("count-lines", false, "count newlines instead of writing output")
	exportIndex := flag.String("export-index", "", "write the seek-point index to this file")
	importIndex := flag.String("import-index", "", "load a seek-point index from this file")
	formatName := flag.String("format", "auto", "input format: auto, gzip, bgzf, bzip2, lz4 or zstd")
	noDiscovery := flag.Bool("no-index-discovery", false, "do not auto-import a sibling .rgzidx index")
	inMemory := flag.Bool("in-memory", false, "load the whole compressed file into memory instead of serving it file-backed")
	stats := flag.Bool("stats", false, "print fetcher statistics to stderr")
	compress := flag.Bool("compress", false, "compress FILE instead of decompressing it")
	level := flag.Int("level", -1, "compression level 0-9 (--compress only; default 6)")
	shardSize := flag.Int("shard-size", 0, "uncompressed bytes compressed independently per shard (--compress only; default 1 MiB)")
	noSidecar := flag.Bool("no-index", false, "do not write the .rgzidx sidecar next to the output (--compress only)")
	flag.Parse()

	if flag.NArg() != 1 {
		return fmt.Errorf("usage: rapidgzip [flags] FILE (see -h)")
	}
	path := flag.Arg(0)

	if *compress {
		return runCompress(path, *formatName, *outPath, *toStdout, *parallel, *level, *shardSize, *noSidecar, *stats)
	}

	format, err := rapidgzip.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	opts := []rapidgzip.Option{
		rapidgzip.WithParallelism(*parallel),
		rapidgzip.WithChunkSize(*chunkSize),
		rapidgzip.WithVerify(*verify),
	}
	if format != rapidgzip.FormatUnknown {
		opts = append(opts, rapidgzip.WithFormat(format))
	}
	if *importIndex != "" {
		opts = append(opts, rapidgzip.WithIndexFile(*importIndex))
	}
	if *noDiscovery {
		opts = append(opts, rapidgzip.WithoutIndexDiscovery())
	}
	if *inMemory {
		opts = append(opts, rapidgzip.WithInMemory())
	}
	r, err := rapidgzip.Open(path, opts...)
	if err != nil {
		return err
	}
	defer r.Close()

	if *exportIndex != "" && !r.Capabilities().Index {
		return fmt.Errorf("%v files have no exportable seek-point index", r.Format())
	}

	var out io.Writer
	switch {
	case *countLines:
		out = io.Discard
	case *toStdout:
		out = os.Stdout
	default:
		p := *outPath
		if p == "" {
			for _, suffix := range outSuffixes[r.Format()] {
				if trimmed := strings.TrimSuffix(path, suffix); trimmed != path {
					p = trimmed
					break
				}
			}
			if p == "" {
				p = path + ".out"
			}
		}
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	var lines int64
	if *countLines {
		out = &lineCounter{n: &lines}
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	n, err := io.Copy(bw, r)
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	if *countLines {
		fmt.Println(lines)
	}
	if *verify {
		// gzip/BGZF verify member CRCs in consumption order; bzip2/LZ4/
		// zstd verify inline during decode, so reaching here means every
		// checksum they carry already passed.
		ok, fails := r.(interface{ CRCVerified() (bool, uint64) }).CRCVerified()
		switch {
		case !ok || fails > 0:
			return fmt.Errorf("CRC verification failed (%d mismatches)", fails)
		case r.Capabilities().Verify:
			fmt.Fprintln(os.Stderr, "rapidgzip: checksums OK")
		default:
			fmt.Fprintf(os.Stderr, "rapidgzip: %v input carries no checksums; nothing verified\n", r.Format())
		}
	}
	if *exportIndex != "" {
		f, err := os.Create(*exportIndex)
		if err != nil {
			return err
		}
		err = r.ExportIndex(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if *stats {
		// Every format runs on the shared span engine now, so the engine
		// counters (including the pread counters that prove the input was
		// served file-backed) are meaningful for all of them; gzip/BGZF
		// add a second line for their speculative chunk pipeline.
		s := r.Stats()
		fmt.Fprintf(os.Stderr, "decompressed %d bytes (%s); sizingPasses=%d sizingDecodes=%d spanDecodes=%d prefetchIssued=%d prefetchJoined=%d cacheHits=%d cacheMisses=%d evictions=%d preads=%d preadBytes=%d\n",
			n, r.Format(), s.SizingPasses, s.SizingDecodes, s.SpanDecodes, s.PrefetchIssued, s.PrefetchJoined, s.SpanCacheHits, s.SpanCacheMisses, s.SpanCacheEvictions, s.SourceReads, s.SourceBytesRead)
		switch r.Format() {
		case rapidgzip.FormatGzip, rapidgzip.FormatBGZF:
			fmt.Fprintf(os.Stderr, "gzip pipeline: chunks=%d speculative=%d finderProbes=%d noBlock=%d falseStarts=%d onDemand=%d indexed=%d\n",
				s.ChunksConsumed, s.GuessTasks, s.FinderProbes, s.GuessNoBlock, s.GuessFalseStarts, s.OnDemandDecodes, s.IndexedDecodes)
		}
	}
	return nil
}

// compressSuffixes maps a writer format to the extension appended to
// the input name to derive the default output name.
var compressSuffixes = map[rapidgzip.Format]string{
	rapidgzip.FormatGzip: ".gz",
	rapidgzip.FormatBGZF: ".bgz",
	rapidgzip.FormatZstd: ".zst",
}

// runCompress is the write side of the CLI: it shards FILE across -P
// workers into gzip, BGZF or zstd output and (unless writing to stdout
// or told otherwise) drops the .rgzidx sidecar that makes the very
// first reopen sizing-free.
func runCompress(path, formatName, outPath string, toStdout bool, parallel, level, shardSize int, noSidecar, stats bool) error {
	format, err := rapidgzip.ParseFormat(formatName)
	if err != nil {
		return err
	}
	var wopts []rapidgzip.WriterOption
	if format != rapidgzip.FormatUnknown {
		wopts = append(wopts, rapidgzip.WithWriterFormat(format))
	}
	wopts = append(wopts, rapidgzip.WithWriterParallelism(parallel))
	if level >= 0 {
		wopts = append(wopts, rapidgzip.WithLevel(level))
	}
	if shardSize > 0 {
		wopts = append(wopts, rapidgzip.WithShardSize(shardSize))
	}
	if noSidecar {
		wopts = append(wopts, rapidgzip.WithoutIndexSidecar())
	}

	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()

	var w rapidgzip.Writer
	var flushOut *bufio.Writer
	if toStdout {
		// Stdout is not seekable and has no sibling path, so no sidecar.
		flushOut = bufio.NewWriterSize(os.Stdout, 1<<20)
		w, err = rapidgzip.NewWriter(flushOut, wopts...)
	} else {
		p := outPath
		if p == "" {
			suffix := compressSuffixes[format]
			if suffix == "" {
				suffix = ".gz" // --format auto compresses to gzip
			}
			p = path + suffix
		}
		w, err = rapidgzip.Create(p, wopts...)
	}
	if err != nil {
		return err
	}
	n, err := w.ReadFrom(bufio.NewReaderSize(in, 1<<20))
	if err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if flushOut != nil {
		if err := flushOut.Flush(); err != nil {
			return err
		}
	}
	if stats {
		s := w.Stats()
		fmt.Fprintf(os.Stderr, "compressed %d bytes (%s) into %d bytes across %d shards (%.2fx)\n",
			n, w.Format(), s.CompressedBytes, s.Shards,
			float64(s.UncompressedBytes)/float64(max(s.CompressedBytes, 1)))
	}
	return nil
}

// lineCounter counts newlines flowing through it.
type lineCounter struct{ n *int64 }

func (l *lineCounter) Write(p []byte) (int, error) {
	*l.n += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}
