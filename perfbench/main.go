// Command perfbench is the repository's benchmark. It generates a
// seeded workload, drives the public API (Open, WriteTo, ReadAt,
// ExportIndexFile, Create, CachePool) and the HTTP server in
// internal/server over loopback, checks every output, and prints one
// JSON result line: the end-to-end metrics when untraced, the
// per-layer metrics when traced.
//
//	bash perfbench/run.sh --workload silesia-seq --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see --list)")
		seed      = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds   = flag.Float64("seconds", 15, "measured seconds, split over the phases")
		traceFlag = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		listFlag  = flag.Bool("list", false, "print every workload and metric with its unit, then exit")
		benchJSON = flag.String("bench-json", "BENCHMARK.json", "benchmark declaration the metric tables must match")
		work      = flag.String("work", ".bench_build/work", "directory for generated inputs (removed afterwards)")
		traceDir  = flag.String("trace-dir", ".bench_build/traces", "directory traced runs write their spans to")
	)
	flag.Parse()
	if *listFlag {
		listWorkloads(os.Stdout)
		listMetrics(os.Stdout)
		return
	}
	if err := checkDeclaration(*benchJSON); err != nil {
		fail(err)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	r := &run{w: w, seed: *seed, trace: &tracer{on: *traceFlag == 1}}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	err = r.execute(dir, time.Duration(*seconds*float64(time.Second)))
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	list := endToEnd
	if r.trace.on {
		list = perLayer
	}
	metrics, err := r.res.emit(list)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: attempted=%d failed=%d\n", w.name, *seed, r.attempted.Load(), r.failed.Load())
	r.res.report(os.Stderr, list)
	if r.trace.on {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		e2e, _ := r.res.emit(endToEnd)
		if err := r.trace.write(path, map[string]any{"workload": w.name, "seed": *seed, "traced_end_to_end": e2e}); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed.Load() == 0,
		"attempted": r.attempted.Load(),
		"failed":    r.failed.Load(),
		"metrics":   metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run is one benchmark execution: the workload, its corpus, the
// operation counts and the collected metrics.
type run struct {
	w     *workload
	seed  uint64
	c     *corpus
	trace *tracer
	res   *results

	attempted, failed atomic.Int64
	outBytes          atomic.Int64 // decompressed bytes delivered to the benchmark
	reqIDs            atomic.Int64

	mu       sync.Mutex
	opens    int             // archive opens whose counters were seen
	engine   rapidgzip.Stats // counters summed over every archive the run closed
	failures int
}

// check counts one operation and whether its output was right.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		r.mu.Lock()
		r.failures++
		if r.failures <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
		}
		r.mu.Unlock()
	}
	return ok
}

// opened records the counters of one archive open and checks an
// indexed one with checkIndexed.
func (r *run) opened(s rapidgzip.Stats, indexed bool, what string) {
	r.mu.Lock()
	r.opens++
	addStats(&r.engine, s)
	r.mu.Unlock()
	if indexed {
		r.checkIndexed(s, what)
	}
}

// checkIndexed asserts that an open with an imported index ran neither
// the block finder nor a sizing pass.
func (r *run) checkIndexed(s rapidgzip.Stats, what string) {
	r.check(s.FinderProbes == 0 && s.SizingPasses == 0,
		"%s: indexed open ran the finder (%d probes) or a sizing pass (%d)", what, s.FinderProbes, s.SizingPasses)
}

// execute sets the workload up several times (setup_s is their
// median), then runs the three phases on the last corpus.
func (r *run) execute(dir string, total time.Duration) error {
	r.res = newResults()
	reps := 3
	if r.trace.on {
		reps = 1
	}
	var setupS []float64
	for k := 0; k < reps; k++ {
		sub := filepath.Join(dir, fmt.Sprint("setup", k))
		start := now()
		c, err := r.w.setup(sub, r.seed)
		if err != nil {
			return err
		}
		setupS = append(setupS, since(start))
		fmt.Fprintf(os.Stderr, "  setup %d took %.2f s\n", k, setupS[k])
		if k < reps-1 {
			if err := os.RemoveAll(sub); err != nil {
				return err
			}
		}
		r.c = c
	}
	r.res.set("setup_s", median(setupS), len(setupS))

	heap := watchHeap()
	rt0 := readRuntime()
	if err := r.phases(total); err != nil {
		return err
	}
	rt1 := readRuntime()
	peak, n := heap.finish()
	r.res.set("peak_heap_MB", peak/1e6, n)
	r.res.set("go.alloc_bytes_per_out_byte", ratio(float64(rt1.allocBytes-rt0.allocBytes), float64(r.outBytes.Load())), 1)
	r.res.set("go.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), 1)
	r.res.set("go.gc_cycles", float64(rt1.gcCycles-rt0.gcCycles), 1)
	s := r.engine
	r.res.set("spanengine.prefetch_useful_ratio", ratio(float64(s.PrefetchJoined), float64(s.PrefetchIssued)), int(s.PrefetchIssued))
	r.res.set("spanengine.sizing_passes", ratio(float64(s.SizingPasses), float64(r.opens)), r.opens)
	if r.trace.on {
		if err := r.referenceCalls(dir); err != nil {
			return err
		}
	}
	if r.attempted.Load() == 0 {
		return errors.New("no operation was attempted")
	}
	r.res.set("ok_ratio", 1-float64(r.failed.Load())/float64(r.attempted.Load()), int(r.attempted.Load()))
	return nil
}

// slices is the number of turns each phase gets. The host's speed
// drifts by 10-20 % over a few seconds; taking turns spreads every
// phase's samples over the whole run, so that no metric rests on the
// few seconds one phase would otherwise get.
const slices = 6

// phase is one of the run's measured loops: start prepares it
// untimed, slice runs it for about d, finish reports its metrics and
// close releases what it holds.
type phase interface {
	start() error
	slice(d time.Duration) error
	finish() error
	close()
}

// phases starts the three phases, lets them take turns in slices,
// with each phase's share of total split evenly over its turns, and
// reports them.
func (r *run) phases(total time.Duration) error {
	names := []string{"seq", "readat", "serve"}
	all := []phase{&seqPhase{r: r}, &readatPhase{r: r}, &servePhase{r: r}}
	took := make([]float64, len(all))
	for i, p := range all {
		defer p.close()
		start := now()
		if err := p.start(); err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		fmt.Fprintf(os.Stderr, "  %s warm-up took %.2f s\n", names[i], since(start))
	}
	for k := 0; k < slices; k++ {
		for i, p := range all {
			runtime.GC() // each turn starts without the previous one's garbage
			start := now()
			if err := p.slice(time.Duration(r.w.share[i] * float64(total) / slices)); err != nil {
				return fmt.Errorf("%s: %w", names[i], err)
			}
			took[i] += since(start)
		}
	}
	for i, p := range all {
		if err := p.finish(); err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		fmt.Fprintf(os.Stderr, "  phase %s took %.2f s\n", names[i], took[i])
	}
	return nil
}
