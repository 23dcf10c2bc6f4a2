package main

import (
	"bytes"
	"compress/bzip2"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/bitio"
	"repro/internal/blockfinder"
	"repro/internal/deflate"
	"repro/internal/gzindex"
)

const refRepeats = 5

// timed runs f refRepeats times and returns the median MB/s for n
// bytes per call; f reports whether its output was right.
func (r *run) timed(name string, n int, f func() bool) float64 {
	var mbps []float64
	for i := 0; i < refRepeats; i++ {
		start := now()
		ok := f()
		end := now()
		r.trace.add(0, 0, r.reqIDs.Add(1), name, start, end, nil)
		if r.check(ok, "%s: wrong output", name) {
			mbps = append(mbps, float64(n)/(float64(end-start)/1e9)/1e6)
		}
	}
	return median(mbps)
}

// referenceCalls times single layers through their exported functions
// on the workload's own bytes, as internal/experiments does for the
// paper's component table: the block finder over the gzip file,
// two-stage and single-stage DecodeChunk from a seek point of its
// index, marker replacement, stdlib bzip2, and a zstd Create.
func (r *run) referenceCalls(dir string) error {
	gz := r.c.archives[0]
	comp, err := os.ReadFile(gz.path)
	if err != nil {
		return err
	}
	scan := comp[:min(len(comp), 1<<20)]
	r.res.set("blockfinder.scan_MBps", r.timed("ref.blockfinder", len(scan), func() bool {
		return len(blockfinder.ScanAll(blockfinder.NewDynamicFinder(), scan, -1)) > 0
	}), refRepeats)

	// The middle seek point: a real block boundary with its window.
	f, err := os.Open(gz.sidecar)
	if err != nil {
		return err
	}
	ix, err := gzindex.Read(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("read %s: %w", gz.sidecar, err)
	}
	if ix.Len() == 0 {
		return fmt.Errorf("%s has no seek points", gz.sidecar)
	}
	i := ix.Len() / 2
	p := ix.Point(i)
	end, stop := uint64(len(gz.content)), uint64(deflate.StopAtEOF)
	if i+1 < ix.Len() {
		end, stop = ix.Point(i+1).UncompressedOffset, ix.Point(i+1).CompressedBitOffset
	}
	window, _ := ix.Window(p.CompressedBitOffset)
	want := gz.content[p.UncompressedOffset:end]
	cfg := deflate.ChunkConfig{Start: p.CompressedBitOffset, Stop: stop, StopAtOutput: uint64(len(want)),
		StartsAtGzipHeader: p.AtMemberStart}
	var marked *deflate.ChunkResult
	r.res.set("deflate.two_stage_MBps", r.timed("ref.deflate.two_stage", len(want), func() bool {
		var d deflate.Decoder
		c := cfg
		c.TwoStage = true
		cr, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), c)
		marked = cr
		return err == nil && cr.TotalOut() >= uint64(len(want))
	}), refRepeats)
	r.res.set("deflate.single_stage_MBps", r.timed("ref.deflate.single_stage", len(want), func() bool {
		var d deflate.Decoder
		c := cfg
		c.Window = window
		cr, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), c)
		return err == nil && len(cr.Raw) >= len(want) && bytes.Equal(cr.Raw[:len(want)], want)
	}), refRepeats)
	if marked == nil {
		return fmt.Errorf("two-stage decode of %s failed", gz.name)
	}
	r.res.set("deflate.marker_ratio", float64(len(marked.Marked))/float64(marked.TotalOut()), 1)
	dst := make([]byte, len(marked.Marked))
	r.res.set("deflate.resolve_markers_MBps", r.timed("ref.deflate.resolve_markers", max(1, len(dst)), func() bool {
		if deflate.ResolveMarkers(dst, marked.Marked, window) != nil {
			return false
		}
		out := append(dst[:len(dst):len(dst)], marked.Raw...)
		return len(out) >= len(want) && bytes.Equal(out[:len(want)], want)
	}), refRepeats)

	bz := r.c.archives[2]
	r.res.set("ref.stdlib_bzip2_MBps", r.timed("ref.stdlib_bzip2", len(bz.content), func() bool {
		f, err := os.Open(bz.path)
		if err != nil {
			return false
		}
		defer f.Close()
		h := crc32.NewIEEE()
		n, err := io.Copy(h, bzip2.NewReader(f))
		return err == nil && n == int64(len(bz.content)) && h.Sum32() == bz.crc
	}), refRepeats)

	src := gz.content[:min(len(gz.content), 8<<20)]
	out := filepath.Join(dir, "create.zst")
	r.res.set("writer.create_MBps", r.timed("ref.create_zstd", len(src), func() bool {
		w, err := rapidgzip.Create(out, rapidgzip.WithWriterFormat(rapidgzip.FormatZstd),
			rapidgzip.WithWriterParallelism(parallelism), rapidgzip.WithContentChecksum(true))
		if err != nil {
			return false
		}
		if _, err := w.Write(src); err != nil {
			w.Close()
			return false
		}
		return w.Close() == nil
	}), refRepeats)
	return nil
}
