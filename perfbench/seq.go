package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro"
)

// ttfbProbes is the number of extra ttfb_ms samples per seq round.
const ttfbProbes = 6

// decodeRun is one timed Open→WriteTo of an archive.
type decodeRun struct {
	secs     float64 // Open + WriteTo
	ttfbSecs float64 // Open start to the first Write callback
	selfSecs float64 // WriteTo minus the time spent in our Write callbacks
	gaps     []float64
	stats    rapidgzip.Stats
}

// openOpts are the options every open in the benchmark uses; indexed
// opens import the archive's sidecar, the others skip discovery and
// start cold.
func (r *run) openOpts(a *archive, indexed bool, extra ...rapidgzip.Option) []rapidgzip.Option {
	opts := []rapidgzip.Option{rapidgzip.WithParallelism(parallelism), rapidgzip.WithChunkSize(chunkSize)}
	if indexed {
		opts = append(opts, rapidgzip.WithIndexFile(a.sidecar))
	} else {
		opts = append(opts, rapidgzip.WithoutIndexDiscovery())
	}
	return append(opts, extra...)
}

// decode opens a and writes its whole decompressed stream into a
// checksumming writer. ok is false when any step failed or the output
// differs from the generated content.
func (r *run) decode(a *archive) (d decodeRun, ok bool) {
	req := r.reqIDs.Add(1)
	start := now()
	ar, err := rapidgzip.Open(a.path, r.openOpts(a, r.w.indexed)...)
	opened := now()
	r.trace.add(0, 0, req, "open."+a.format, start, opened, nil)
	if !r.check(err == nil, "open %s: %v", a.name, err) {
		return d, false
	}
	defer ar.Close()
	before := ar.Stats()

	parent := r.trace.id()
	first, prevEnd := int64(-1), int64(0)
	var inWrites int64
	cw := &crcWriter{onCall: func(s, e int64) {
		if first < 0 {
			first = s
		} else {
			d.gaps = append(d.gaps, float64(s-prevEnd)/1e6)
		}
		prevEnd = e
		inWrites += e - s
		r.trace.add(0, parent, req, "write", s, e, nil)
	}}
	n, err := ar.WriteTo(cw)
	end := now()
	d.stats = ar.Stats()
	r.trace.add(parent, 0, req, "writeto."+a.format, opened, end, statsDelta(before, d.stats))
	r.opened(d.stats, r.w.indexed, a.name)
	r.outBytes.Add(n)
	d.secs = float64(end-start) / 1e9
	d.ttfbSecs = float64(first-start) / 1e9
	d.selfSecs = float64(end-opened-inWrites) / 1e9
	ok = r.check(err == nil && n == int64(len(a.content)) && cw.crc == a.crc,
		"WriteTo %s: n=%d want %d, crc ok=%v, err=%v", a.name, n, len(a.content), cw.crc == a.crc, err)
	return d, ok
}

// errFirstWrite ends a WriteTo after its first Write.
var errFirstWrite = errors.New("first Write received")

// firstWrite records when the first Write arrives, checks its bytes
// against the start of the content, and stops the WriteTo.
type firstWrite struct {
	want []byte
	at   int64
	ok   bool
}

func (w *firstWrite) Write(p []byte) (int, error) {
	w.at = now()
	w.ok = len(p) > 0 && bytes.Equal(p, w.want[:min(len(p), len(w.want))])
	return len(p), errFirstWrite
}

// ttfbProbe opens a as decode does and stops its WriteTo at the first
// Write: one more ttfb_ms sample for the price of the first chunk.
func (r *run) ttfbProbe(a *archive) (ms float64, ok bool) {
	start := now()
	ar, err := rapidgzip.Open(a.path, r.openOpts(a, r.w.indexed)...)
	if !r.check(err == nil, "open %s: %v", a.name, err) {
		return 0, false
	}
	defer ar.Close()
	fw := &firstWrite{want: a.content}
	_, err = ar.WriteTo(fw)
	r.trace.add(0, 0, r.reqIDs.Add(1), "ttfb."+a.format, start, fw.at, nil)
	if r.w.indexed {
		r.checkIndexed(ar.Stats(), a.name)
	}
	ok = r.check(errors.Is(err, errFirstWrite) && fw.ok,
		"first Write of %s: bytes ok=%v, err=%v", a.name, fw.ok, err)
	return float64(fw.at-start) / 1e6, ok
}

// stdlibGzip decodes the gzip archive with compress/gzip on one core,
// the reference speedup_vs_stdlib divides by.
func (r *run) stdlibGzip(a *archive) (float64, bool) {
	start := now()
	f, err := os.Open(a.path)
	if !r.check(err == nil, "open %s: %v", a.path, err) {
		return 0, false
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if !r.check(err == nil, "stdlib gzip %s: %v", a.name, err) {
		return 0, false
	}
	h := crc32.NewIEEE()
	n, err := io.Copy(h, zr)
	end := now()
	r.trace.add(0, 0, r.reqIDs.Add(1), "ref.stdlib_gzip", start, end, nil)
	ok := r.check(err == nil && n == int64(len(a.content)) && h.Sum32() == a.crc,
		"stdlib gzip %s: n=%d err=%v", a.name, n, err)
	return float64(end-start) / 1e9, ok
}

// seqPhase decodes every archive front to back, round after round,
// with a stdlib decode of the gzip archive in each round as the
// same-run reference. Each round also takes ttfbProbes extra ttfb_ms
// samples of the gzip archive, since a round's full decode gives only
// one, and openPerRound open_ms rounds. One untimed round comes first:
// the first iteration runs at about half speed.
type seqPhase struct {
	r *run
	// Per format: decodes timed, and their summed bytes and seconds.
	decodes                           []int
	bytes, secs                       []float64
	speedup, ttfb, self, gaps, stdlib []float64
	core                              rapidgzip.Stats
	gzipRuns                          int
	opens                             openTimes
	openPool                          *rapidgzip.CachePool
}

func (p *seqPhase) start() error {
	p.decodes = make([]int, len(formats))
	p.bytes = make([]float64, len(formats))
	p.secs = make([]float64, len(formats))
	// The open_ms rounds get a pool of their own, so that closing their
	// handles cannot touch the spans the readat phase keeps cached.
	p.openPool = rapidgzip.NewCachePool(p.r.w.poolBudget())
	return p.round(false)
}

// slice runs rounds until d has passed, at least one.
func (p *seqPhase) slice(d time.Duration) error {
	deadline := now() + int64(d)
	for {
		if err := p.round(true); err != nil {
			return err
		}
		if now() >= deadline {
			return nil
		}
	}
}

func (p *seqPhase) round(timed bool) error {
	r := p.r
	var oursGzip float64
	for i, a := range r.c.archives {
		d, ok := r.decode(a)
		if !ok || !timed {
			continue
		}
		p.decodes[i]++
		p.bytes[i] += float64(len(a.content))
		p.secs[i] += d.secs
		if a.format == "gzip" {
			oursGzip = d.secs
			p.ttfb = append(p.ttfb, d.ttfbSecs*1e3)
			p.self = append(p.self, d.selfSecs*1e3)
			p.gaps = append(p.gaps, d.gaps...)
			addStats(&p.core, d.stats)
			p.gzipRuns++
		}
	}
	for k := 0; k < ttfbProbes; k++ {
		if ms, ok := r.ttfbProbe(r.c.archives[0]); ok && timed {
			p.ttfb = append(p.ttfb, ms)
		}
	}
	for k := 0; timed && k < openPerRound; k++ {
		if err := r.openRound(p.openPool, &p.opens); err != nil {
			return err
		}
	}
	ref, ok := r.stdlibGzip(r.c.archives[0])
	if ok && timed && oursGzip > 0 {
		p.speedup = append(p.speedup, ref/oursGzip)
		p.stdlib = append(p.stdlib, float64(len(r.c.archives[0].content))/ref/1e6)
	}
	return nil
}

func (p *seqPhase) finish() error {
	res := p.r.res
	p.opens.report(res)
	for i, f := range formats {
		// Summed bytes over summed time, not a median: one decode's
		// speed can be bimodal (a 2 MiB zstd frame read 80 or 120 MB/s
		// on the same run), and a median then flips between the modes.
		res.set("decode_MBps."+f, p.bytes[i]/p.secs[i]/1e6, p.decodes[i])
	}
	res.set("speedup_vs_stdlib", median(p.speedup), len(p.speedup))
	res.set("ttfb_ms", median(p.ttfb), len(p.ttfb))
	res.set("ref.stdlib_gzip_MBps", median(p.stdlib), len(p.stdlib))
	core, runs := p.core, float64(p.gzipRuns)
	res.set("core.guess_tasks", ratio(float64(core.GuessTasks), runs), p.gzipRuns)
	res.set("core.on_demand_decodes", ratio(float64(core.OnDemandDecodes), runs), p.gzipRuns)
	res.set("core.indexed_decodes", ratio(float64(core.IndexedDecodes), runs), p.gzipRuns)
	res.set("core.writeto_self_ms", median(p.self), len(p.self))
	stall := 0.0 // every WriteTo made a single Write: nothing stalled between Writes
	if len(p.gaps) > 0 {
		stall = quantile(p.gaps, 0.99)
	}
	res.set("core.stall_p99_ms", stall, len(p.gaps))
	res.set("blockfinder.probes_per_chunk", ratio(float64(core.FinderProbes), float64(core.ChunksConsumed)), int(core.ChunksConsumed))
	res.set("blockfinder.false_start_ratio", ratio(float64(core.GuessFalseStarts), float64(core.GuessTasks)), int(core.GuessTasks))
	return nil
}

func (p *seqPhase) close() {}
