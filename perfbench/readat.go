package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

const (
	openPerRound = 30   // open_ms rounds per seq round
	minReads     = 1000 // ten samples beyond the p99
	warmReads    = 400
	// zipfS is the skew of the ReadAt and ranged-GET offsets over an
	// archive's 64 KiB blocks.
	zipfS = 2.0
)

// readOp is one scheduled ReadAt: which archive and where.
type readOp struct {
	arch int
	off  int64
}

// readGen draws ReadAt offsets: an archive uniformly, then a 64 KiB
// block of it by a Zipf law. Rank k maps to the k-th block from the
// middle of the archive (wrapping), so the hot blocks sit together the
// same way for every seed and the hit ratio does not depend on it. The
// seed draws the ranks and a shift within the block that lets reads
// straddle block and span boundaries.
type readGen struct {
	rng    *rand.Rand
	zipf   []*rand.Zipf
	blocks [][]int64 // per archive: block offsets in rank order
	sizes  []int64
}

func (r *run) newReadGen(rng *rand.Rand) *readGen {
	g := &readGen{rng: rng}
	for _, a := range r.c.archives {
		size := int64(len(a.content))
		n := int((size + readSize - 1) / readSize)
		offs := make([]int64, n)
		for k := range offs {
			offs[k] = int64((n/2+k)%n) * readSize
		}
		g.sizes = append(g.sizes, size)
		g.blocks = append(g.blocks, offs)
		g.zipf = append(g.zipf, rand.NewZipf(rng, zipfS, 1, uint64(n-1)))
	}
	return g
}

func (g *readGen) next() readOp {
	i := g.rng.Intn(len(g.blocks))
	off := g.blocks[i][g.zipf[i].Uint64()] + g.rng.Int63n(readSize)
	return readOp{arch: i, off: min(off, max(0, g.sizes[i]-readSize))}
}

func (g *readGen) ops(n int) []readOp {
	ops := make([]readOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// readSample is one timed ReadAt.
type readSample struct {
	arch  int
	start int64
	us    float64
	miss  bool // the archive's span cache missed during the call (traced runs only)
}

// readLoop runs the closed loop: each caller issues its next ReadAt as
// soon as the previous one returns, until the deadline has passed and
// at least minOps calls are done. The schedule repeats if it runs out.
func (r *run) readLoop(ars []rapidgzip.Archive, ops []readOp, deadline int64, minOps int) []readSample {
	var next atomic.Int64
	per := make([][]readSample, parallelism)
	var wg sync.WaitGroup
	for c := 0; c < parallelism; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, readSize)
			for {
				i := next.Add(1) - 1
				if i >= int64(minOps) && now() >= deadline {
					return
				}
				op := ops[i%int64(len(ops))]
				a := r.c.archives[op.arch]
				want := a.content[op.off:min(op.off+readSize, int64(len(a.content)))]
				var before rapidgzip.Stats
				if r.trace.on {
					before = ars[op.arch].Stats()
				}
				start := now()
				n, err := ars[op.arch].ReadAt(buf[:len(want)], op.off)
				end := now()
				s := readSample{arch: op.arch, start: start, us: float64(end-start) / 1e3}
				if r.trace.on {
					after := ars[op.arch].Stats()
					s.miss = after.SpanCacheMisses > before.SpanCacheMisses
					r.trace.add(0, 0, r.reqIDs.Add(1), "readat."+a.format, start, end, statsDelta(before, after))
				}
				if err == io.EOF && n == len(want) {
					err = nil
				}
				r.outBytes.Add(int64(n))
				r.check(err == nil && n == len(want) && bytes.Equal(buf[:n], want),
					"ReadAt %s @%d: n=%d err=%v", a.name, op.off, n, err)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []readSample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all
}

// openIndexed opens all four archives with their sidecars in pool,
// returning the per-archive open times in ms.
func (r *run) openIndexed(pool *rapidgzip.CachePool) ([]rapidgzip.Archive, []float64, error) {
	ars := make([]rapidgzip.Archive, len(r.c.archives))
	ms := make([]float64, len(r.c.archives))
	for i, a := range r.c.archives {
		start := now()
		ar, err := rapidgzip.Open(a.path, r.openOpts(a, true, rapidgzip.WithSharedPool(pool))...)
		end := now()
		r.trace.add(0, 0, r.reqIDs.Add(1), "open."+a.format, start, end, nil)
		if !r.check(err == nil, "indexed open %s: %v", a.name, err) {
			r.closeAll(ars)
			return nil, nil, fmt.Errorf("indexed open %s: %w", a.name, err)
		}
		ars[i], ms[i] = ar, float64(end-start)/1e6
	}
	return ars, ms, nil
}

// closeAll closes the archives of one open round, recording their
// counters.
func (r *run) closeAll(ars []rapidgzip.Archive) {
	for i, ar := range ars {
		if ar != nil {
			r.opened(ar.Stats(), true, r.c.archives[i].name)
			ar.Close()
		}
	}
}

// openTimes collects the indexed open times behind open_ms and
// open.<fmt>_ms.
type openTimes struct {
	rounds    []float64   // per round: geometric mean of the four opens
	perFormat [][]float64 // per format: each open
}

// openRound opens the four archives with their sidecars in pool and
// closes them again. A round's time is the geometric mean of its four
// open times, so that one format's open does not drown the others.
func (r *run) openRound(pool *rapidgzip.CachePool, t *openTimes) error {
	ars, ms, err := r.openIndexed(pool)
	if err != nil {
		return err
	}
	r.closeAll(ars)
	if t.perFormat == nil {
		t.perFormat = make([][]float64, len(formats))
	}
	logSum := 0.0
	for i, m := range ms {
		t.perFormat[i] = append(t.perFormat[i], m)
		logSum += math.Log(m)
	}
	t.rounds = append(t.rounds, math.Exp(logSum/float64(len(ms))))
	return nil
}

// report sets open_ms, the median over the rounds, and each format's
// median open time.
func (t *openTimes) report(res *results) {
	res.set("open_ms", median(t.rounds), len(t.rounds))
	for i, f := range formats {
		res.set("open."+f+"_ms", median(t.perFormat[i]), len(t.perFormat[i]))
	}
}

// readatPhase opens the four archives with their sidecars in the run's
// ReadAt pool, then two closed-loop callers issue 64 KiB ReadAts at
// Zipf-skewed offsets.
type readatPhase struct {
	r           *run
	pool        *rapidgzip.CachePool
	ars         []rapidgzip.Archive
	gen         *readGen
	statsBefore []rapidgzip.Stats
	poolBefore  rapidgzip.PoolStats
	samples     []readSample
	rates       []float64 // per slice: ReadAts completed per second
}

// start opens the archives and warms the pool up: one sweep over every
// archive, then random reads, so that timing starts in the pool's
// steady state.
func (p *readatPhase) start() error {
	r := p.r
	p.pool = rapidgzip.NewCachePool(r.w.poolBudget())
	var err error
	if p.ars, _, err = r.openIndexed(p.pool); err != nil {
		return err
	}
	var sweep []readOp
	for i, a := range r.c.archives {
		for off := int64(0); off < int64(len(a.content)); off += readSize {
			sweep = append(sweep, readOp{i, off})
		}
	}
	r.readLoop(p.ars, sweep, 0, len(sweep))
	p.gen = r.newReadGen(rand.New(rand.NewSource(int64(r.seed))))
	r.readLoop(p.ars, p.gen.ops(warmReads), 0, warmReads)
	for _, ar := range p.ars {
		p.statsBefore = append(p.statsBefore, ar.Stats())
	}
	p.poolBefore = p.pool.Stats()
	return nil
}

func (p *readatPhase) slice(d time.Duration) error {
	start := now()
	s := p.r.readLoop(p.ars, p.gen.ops(1<<16), start+int64(d), (minReads+slices-1)/slices)
	p.rates = append(p.rates, float64(len(s))/since(start))
	p.samples = append(p.samples, s...)
	return nil
}

func (p *readatPhase) finish() error {
	r := p.r
	poolAfter := p.pool.Stats()
	var moved rapidgzip.Stats
	for i, ar := range p.ars {
		addStats(&moved, subStats(ar.Stats(), p.statsBefore[i]))
	}
	var all []float64
	lat := make([][]float64, len(formats))
	miss := make([][]float64, len(formats))
	for _, s := range p.samples {
		all = append(all, s.us)
		lat[s.arch] = append(lat[s.arch], s.us)
		if s.miss {
			miss[s.arch] = append(miss[s.arch], s.us/1e3)
		}
	}
	ops := float64(len(p.samples))
	r.res.set("readat_p50_us", median(append([]float64(nil), all...)), len(all))
	r.res.set("readat_p99_us", windowedP99(append([]float64(nil), all...)), len(all))
	r.res.set("readat_ops_s", median(p.rates), len(all))
	for i, f := range formats {
		r.res.set("readat."+f+".p50_us", median(lat[i]), len(lat[i]))
		r.res.set("readat."+f+".p99_us", quantile(lat[i], 0.99), len(lat[i]))
		m := 0.0
		if len(miss[i]) > 0 {
			m = median(miss[i])
		}
		r.res.set("readat."+f+".miss_ms", m, len(miss[i]))
	}
	hits, misses := poolAfter.Hits-p.poolBefore.Hits, poolAfter.Misses-p.poolBefore.Misses
	r.res.set("spanengine.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	r.res.set("spanengine.evictions_per_op", float64(poolAfter.Evictions-p.poolBefore.Evictions)/ops, len(all))
	r.res.set("spanengine.span_decodes_per_op", float64(moved.SpanDecodes)/ops, len(all))
	r.res.set("spanengine.source_reads_per_op", float64(moved.SourceReads)/ops, len(all))
	r.res.set("spanengine.source_bytes_per_op", float64(moved.SourceBytesRead)/ops, len(all))
	r.check(poolAfter.PeakBytes <= poolAfter.BudgetBytes,
		"pool peak %d exceeds budget %d", poolAfter.PeakBytes, poolAfter.BudgetBytes)
	return nil
}

func (p *readatPhase) close() {
	p.r.closeAll(p.ars)
	p.ars = nil
}
