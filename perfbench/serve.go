package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

const (
	warmRequests = 200
	minFixed     = 1200 // requests at the fixed rate: ≥ ten beyond the p99
	// The http_max_rps search: a closed-loop probe, then one bisection
	// step per slice of up to stepTries tries of stepSeconds each (the
	// fixed segment leaves stepSlot seconds of a slice for it).
	probeSeconds = 1.0
	probeBurst   = 400
	stepSeconds  = 0.75
	stepTries    = 3
	stepSlot     = 1.1
	minStep      = 200
	searchLow    = 0.5
	searchHigh   = 2.0
	backlogMs    = 10
)

// Request kinds of the serve mix.
const (
	ranged = iota
	wholeGET
	revalidate
)

// httpReq is one scheduled request and what its response must be.
type httpReq struct {
	kind   int
	name   string
	off, n int64
	size   int64  // decompressed size, for Content-Range
	body   []byte // expected body
	etag   string
	arch   int // archive index for ranged requests
}

// httpResult is one request's timing (ns since start) and outcome.
type httpResult struct {
	due, start, end int64
	ok              bool
}

// reqGen draws requests by the workload's mix: ranged 64 KiB GETs into
// the four archives (offsets as in readat), whole GETs of fleet
// archives, and If-None-Match revalidations of any name.
type reqGen struct {
	r     *run
	rng   *rand.Rand
	reads *readGen
	etags map[string]string
	names []string
}

func (g *reqGen) next() httpReq {
	x := g.rng.Float64()
	mix := g.r.w.mix
	switch {
	case x < mix[0] || (x < mix[0]+mix[1] && len(g.r.c.fleet) == 0):
		op := g.reads.next()
		a := g.r.c.archives[op.arch]
		end := min(op.off+readSize, int64(len(a.content)))
		return httpReq{kind: ranged, name: a.name, off: op.off, n: end - op.off,
			size: int64(len(a.content)), body: a.content[op.off:end], arch: op.arch}
	case x < mix[0]+mix[1]:
		f := g.r.c.fleet[g.rng.Intn(len(g.r.c.fleet))]
		return httpReq{kind: wholeGET, name: f.Name, body: f.Content}
	default:
		name := g.names[g.rng.Intn(len(g.names))]
		return httpReq{kind: revalidate, name: name, etag: g.etags[name]}
	}
}

// do sends one request and checks status, headers and body.
func (r *run) do(client *http.Client, base string, q *httpReq) error {
	req, err := http.NewRequest(http.MethodGet, base+"/archives/"+q.name, nil)
	if err != nil {
		return err
	}
	switch q.kind {
	case ranged:
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", q.off, q.off+q.n-1))
	case revalidate:
		req.Header.Set("If-None-Match", q.etag)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	r.outBytes.Add(int64(len(body)))
	switch q.kind {
	case ranged:
		want := fmt.Sprintf("bytes %d-%d/%d", q.off, q.off+q.n-1, q.size)
		if resp.StatusCode != http.StatusPartialContent || resp.Header.Get("Content-Range") != want {
			return fmt.Errorf("%s: status %d Content-Range %q, want 206 %q", q.name, resp.StatusCode, resp.Header.Get("Content-Range"), want)
		}
	case wholeGET:
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d, want 200", q.name, resp.StatusCode)
		}
	case revalidate:
		if resp.StatusCode != http.StatusNotModified || resp.Header.Get("ETag") != q.etag || len(body) != 0 {
			return fmt.Errorf("%s: status %d ETag %q body %d bytes, want 304 %q", q.name, resp.StatusCode, resp.Header.Get("ETag"), len(body), q.etag)
		}
		return nil
	}
	if !bytes.Equal(body, q.body) {
		return fmt.Errorf("%s: body of %d bytes differs from the expected %d", q.name, len(body), len(q.body))
	}
	return nil
}

// segment sends reqs on a fixed schedule at rate per second over the
// benchmark's connections and times each from when it was due. It
// returns the results and how late the generator ran (ms).
func (r *run) segment(client *http.Client, base string, reqs []httpReq, rate float64) ([]httpResult, []float64) {
	res := make([]httpResult, len(reqs))
	queue := make(chan int, len(reqs)) // never blocks the generator: an open loop
	var wg sync.WaitGroup
	for c := 0; c < parallelism; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				q := &reqs[i]
				res[i].start = now()
				err := r.do(client, base, q)
				res[i].end = now()
				res[i].ok = r.check(err == nil, "HTTP %v", err)
				r.trace.add(0, 0, r.reqIDs.Add(1), "http."+[]string{"ranged", "whole", "revalidate"}[q.kind]+" "+q.name, res[i].start, res[i].end, nil)
			}
		}()
	}
	late := make([]float64, len(reqs))
	interval := float64(time.Second) / rate // 0 for an infinite rate: all due at once
	base0 := now()
	for i := range reqs {
		due := base0 + int64(float64(i)*interval)
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		res[i].due = due
		late[i] = float64(now()-due) / 1e6
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res, late
}

// latencies returns each request's time from due to done, in ms; a
// failed request counts as missing any limit.
func latencies(res []httpResult) []float64 {
	out := make([]float64, len(res))
	for i, x := range res {
		out[i] = float64(x.end-x.due) / 1e6
		if !x.ok {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// servePhase runs the open loop against an in-process internal/server
// over loopback. Each slice sends a fixed-rate segment, for
// http_p50_ms and http_p99_ms, then takes one step of the search for
// http_max_rps.
type servePhase struct {
	r      *run
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	client *http.Client
	base   string
	g      *reqGen

	fixedReqs []httpReq
	fixedRes  []httpResult
	late      []float64
	counters  [][2]serverSnap // server counters around each fixed segment
	search    rateSearch
}

// serverSnap is the server's counters at one moment.
type serverSnap struct {
	m server.Metrics
	p rapidgzip.PoolStats
}

func (p *servePhase) snap() serverSnap { return serverSnap{p.srv.Metrics(), p.srv.Pool().Stats()} }

// start brings the server up, learns every archive's ETag, warms the
// server's pool and measures the capacity the search starts from.
func (p *servePhase) start() error {
	r := p.r
	srv, err := server.New(server.Config{
		Root:            r.c.root,
		MaxOpenArchives: r.w.maxOpen,
		PoolBudget:      r.c.servedBytes() + 1<<20, // every served byte fits
		IndexStore:      r.c.store,
		Options:         []rapidgzip.Option{rapidgzip.WithParallelism(parallelism), rapidgzip.WithChunkSize(chunkSize)},
	})
	if err != nil {
		return err
	}
	p.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	p.served = make(chan struct{})
	go func() {
		defer close(p.served)
		_ = p.hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	p.tr = &http.Transport{MaxConnsPerHost: parallelism, MaxIdleConnsPerHost: parallelism, DisableCompression: true}
	p.client = &http.Client{Transport: p.tr, Timeout: 30 * time.Second}
	p.base = "http://" + ln.Addr().String()

	g := &reqGen{r: r, rng: rand.New(rand.NewSource(int64(r.seed) + 1)), etags: map[string]string{}}
	g.reads = r.newReadGen(rand.New(rand.NewSource(int64(r.seed) + 2)))
	for _, a := range r.c.archives {
		g.names = append(g.names, a.name)
	}
	for _, f := range r.c.fleet {
		g.names = append(g.names, f.Name)
	}
	for _, name := range g.names {
		resp, err := p.client.Head(p.base + "/archives/" + name)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
			return fmt.Errorf("HEAD %s: status %d", name, resp.StatusCode)
		}
		g.etags[name] = resp.Header.Get("ETag")
	}
	p.g = g

	// Warm up: one whole GET of each archive fills the server's pool, as
	// in steady state; then requests of the mix.
	whole := make([]httpReq, len(r.c.archives))
	for i, a := range r.c.archives {
		whole[i] = httpReq{kind: wholeGET, name: a.name, body: a.content}
	}
	r.segment(p.client, p.base, whole, math.Inf(1))
	r.segment(p.client, p.base, p.draw(warmRequests), r.w.rate)
	p.search.start(p)
	return nil
}

func (p *servePhase) draw(n int) []httpReq {
	reqs := make([]httpReq, n)
	for i := range reqs {
		reqs[i] = p.g.next()
	}
	return reqs
}

// slice sends d's share of fixed-rate requests, leaving stepSlot for
// the search step that follows.
func (p *servePhase) slice(d time.Duration) error {
	r := p.r
	n := max((minFixed+slices-1)/slices, int(r.w.rate*(d.Seconds()-stepSlot)))
	reqs := p.draw(n)
	before := p.snap()
	res, late := r.segment(p.client, p.base, reqs, r.w.rate)
	p.counters = append(p.counters, [2]serverSnap{before, p.snap()})
	p.fixedReqs = append(p.fixedReqs, reqs...)
	p.fixedRes = append(p.fixedRes, res...)
	p.late = append(p.late, late...)
	if err := r.checkServerOpens(p.client, p.base); err != nil {
		return err
	}
	p.search.step(p)
	return nil
}

func (p *servePhase) finish() error {
	r := p.r
	lat := latencies(p.fixedRes)
	r.res.set("http_p50_ms", median(append([]float64(nil), lat...)), len(lat))
	r.res.set("http_p99_ms", windowedP99(lat), len(lat))
	r.res.set("bench.gen_late_p99_ms", quantile(p.late, 0.99), len(p.late))
	r.serverLayer(p.counters)
	if r.trace.on {
		if err := r.replaySelf(p.fixedReqs, p.fixedRes); err != nil {
			return err
		}
	}
	maxRPS, err := p.search.result(p)
	if err != nil {
		return err
	}
	r.res.set("http_max_rps", maxRPS, p.search.steps)
	if err := r.checkServerOpens(p.client, p.base); err != nil {
		return err
	}
	m := p.srv.Metrics()
	r.check(m.WarmupsQueued+m.WarmupsSkipped == 0 && m.HeavyOpens == 0,
		"server: %d of %d opens paid a sizing pass (warm-ups queued %d, skipped %d), %d heavy opens",
		m.WarmupsQueued+m.WarmupsSkipped, m.HandleMisses, m.WarmupsQueued, m.WarmupsSkipped, m.HeavyOpens)
	pool := p.srv.Pool().Stats()
	r.check(pool.PeakBytes <= pool.BudgetBytes, "server pool peak %d exceeds budget %d", pool.PeakBytes, pool.BudgetBytes)
	return nil
}

func (p *servePhase) close() {
	if p.hs != nil {
		p.tr.CloseIdleConnections()
		p.hs.Close()
		<-p.served
	}
	if p.srv != nil {
		p.srv.Close()
	}
}

// rateSearch finds http_max_rps: the highest tested rate whose p99,
// timed from due, meets latencyLimitMs without a growing queue.
// Closed-loop bursts on the two connections first measure the capacity
// C (their median rate). Open-loop steps, one per slice, then bisect
// the rate between searchLow·C and searchHigh·C. A step passes when its
// p99 meets the limit and the median latency of its last tenth exceeds
// that of its first tenth by at most backlogMs: past the rate the
// server sustains, the queue grows, so a step fails under 2% above
// that rate, or lower where slow requests push the p99 past the limit.
// The range is wide because the open loop often sustains more than the
// bursts suggest. A step fails only if stepTries tries in a row fail,
// so that a host stall, which can push one try's p99 past the limit at
// any rate, does not throw the search into the lower half.
type rateSearch struct {
	capacity float64
	lo, hi   float64
	passed   bool
	steps    int
}

func (s *rateSearch) start(p *servePhase) {
	var bursts []float64
	for start := now(); since(start) < probeSeconds; {
		t := now()
		p.r.segment(p.client, p.base, p.draw(probeBurst), math.Inf(1))
		bursts = append(bursts, probeBurst/since(t))
	}
	s.capacity = median(bursts)
	s.lo, s.hi = searchLow, searchHigh
}

// passes runs the step at f·C, up to stepTries times until a try
// passes.
func (s *rateSearch) passes(p *servePhase, f float64) bool {
	s.steps++
	rate := f * s.capacity
	for try := 0; try < stepTries; try++ {
		res, _ := p.r.segment(p.client, p.base, p.draw(max(minStep, int(rate*stepSeconds))), rate)
		lat := latencies(res)
		head := median(append([]float64(nil), lat[:len(lat)/10]...))
		tail := median(append([]float64(nil), lat[len(lat)*9/10:]...))
		p99 := quantile(lat, 0.99)
		ok := p99 <= latencyLimitMs && tail-head <= backlogMs
		fmt.Fprintf(os.Stderr, "    search step %.0f req/s (%.3f·C): p99 %.1f ms, queue growth %.1f ms, pass=%v\n", rate, f, p99, tail-head, ok)
		if ok {
			return true
		}
	}
	return false
}

// step halves the search interval.
func (s *rateSearch) step(p *servePhase) {
	mid := (s.lo + s.hi) / 2
	if s.passes(p, mid) {
		s.lo, s.passed = mid, true
	} else {
		s.hi = mid
	}
}

// result is the highest passing rate. When no step passed, searchLow·C
// itself is tried; the run fails if it misses the limit too.
func (s *rateSearch) result(p *servePhase) (float64, error) {
	if !s.passed && !s.passes(p, s.lo) {
		return 0, fmt.Errorf("http_max_rps: %.0f req/s, %.2f of the probed capacity, missed the %d ms limit", s.lo*s.capacity, s.lo, latencyLimitMs)
	}
	fmt.Fprintf(os.Stderr, "  http_max_rps: capacity %.0f req/s, limit met up to %.3f of it\n", s.capacity, s.lo)
	return s.lo * s.capacity, nil
}

// checkServerOpens reads /metrics and asserts that every archive the
// server holds open imported its index: no finder probes, no sizing
// pass. Handles evicted before the read are covered by the warm-up
// counters servePhase checks: the server queues a warm-up for every
// open that paid a sizing pass.
func (r *run) checkServerOpens(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m struct {
		Archives map[string]struct {
			Stats rapidgzip.Stats `json:"stats"`
		} `json:"archives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	names := make([]string, 0, len(m.Archives))
	for name := range m.Archives {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.opened(m.Archives[name].Stats, true, "server "+name)
	}
	return nil
}

// serverLayer reports the server's counter deltas summed over the
// fixed-rate segments.
func (r *run) serverLayer(counters [][2]serverSnap) {
	var m server.Metrics
	var p rapidgzip.PoolStats
	for _, c := range counters {
		m0, m1, p0, p1 := c[0].m, c[1].m, c[0].p, c[1].p
		m.Requests += m1.Requests - m0.Requests
		m.HandleHits += m1.HandleHits - m0.HandleHits
		m.HandleMisses += m1.HandleMisses - m0.HandleMisses
		m.NotModified += m1.NotModified - m0.NotModified
		m.BodyDecodes += m1.BodyDecodes - m0.BodyDecodes
		m.CanceledWaits += m1.CanceledWaits - m0.CanceledWaits
		m.OpenFailures += m1.OpenFailures - m0.OpenFailures
		p.Hits += p1.Hits - p0.Hits
		p.Misses += p1.Misses - p0.Misses
		p.Evictions += p1.Evictions - p0.Evictions
		p.PeakBytes = max(p.PeakBytes, p1.PeakBytes)
	}
	reqs := float64(m.Requests)
	hh, hm := float64(m.HandleHits), float64(m.HandleMisses)
	ph, pm := float64(p.Hits), float64(p.Misses)
	n := int(reqs)
	r.res.set("server.handle_hit_ratio", ratio(hh, hh+hm), int(hh+hm))
	r.res.set("server.not_modified_share", ratio(float64(m.NotModified), reqs), n)
	r.res.set("server.body_decodes_per_req", ratio(float64(m.BodyDecodes), reqs), n)
	r.res.set("server.canceled_waits", float64(m.CanceledWaits), n)
	r.res.set("server.open_failures", float64(m.OpenFailures), n)
	r.res.set("server.pool_hit_ratio", ratio(ph, ph+pm), int(ph+pm))
	r.res.set("server.pool_evictions_per_req", ratio(float64(p.Evictions), reqs), n)
	r.res.set("server.pool_peak_MB", float64(p.PeakBytes)/1e6, 1)
}

// replaySelf replays the fixed segment's ranged requests as direct
// ReadAt calls on archives opened like the server opens them, so that
// server.http_self_us is the HTTP service time the server and the
// loopback add on top of the read itself.
func (r *run) replaySelf(reqs []httpReq, res []httpResult) error {
	var httpUs, directUs []float64
	pool := rapidgzip.NewCachePool(r.c.servedBytes() + 1<<20)
	ars, _, err := r.openIndexed(pool)
	if err != nil {
		return err
	}
	defer r.closeAll(ars)
	buf := make([]byte, readSize)
	for pass := 0; pass < 2; pass++ { // the first pass fills the pool as the server's warm-up did
		for i, q := range reqs {
			if q.kind != ranged || !res[i].ok {
				continue
			}
			start := now()
			n, err := ars[q.arch].ReadAt(buf[:q.n], q.off)
			us := float64(now()-start) / 1e3
			if err == io.EOF && int64(n) == q.n {
				err = nil
			}
			r.check(err == nil && bytes.Equal(buf[:n], q.body), "replay ReadAt %s @%d: %v", q.name, q.off, err)
			if pass == 1 {
				httpUs = append(httpUs, float64(res[i].end-res[i].start)/1e3)
				directUs = append(directUs, us)
			}
		}
	}
	r.res.set("server.http_self_us", median(httpUs)-median(directUs), len(httpUs))
	return nil
}
