package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric describes one reported number. End-to-end metrics (layer "")
// are emitted by untraced runs; per-layer metrics by traced runs, each
// naming the end-to-end metric it should move and the workloads where
// its layer does the most and the least work.
type metric struct {
	name, unit, better string
	layer              string
	moves              string
	most, little       string
}

// endToEnd lists the metrics a user of the library or server sees.
var endToEnd = []metric{
	{name: "decode_MBps.gzip", unit: "MB/s", better: "higher"},
	{name: "decode_MBps.bgzf", unit: "MB/s", better: "higher"},
	{name: "decode_MBps.bzip2", unit: "MB/s", better: "higher"},
	{name: "decode_MBps.zstd", unit: "MB/s", better: "higher"},
	{name: "speedup_vs_stdlib", unit: "x", better: "higher"},
	{name: "ttfb_ms", unit: "ms", better: "lower"},
	{name: "open_ms", unit: "ms", better: "lower"},
	{name: "readat_p50_us", unit: "us", better: "lower"},
	{name: "readat_p99_us", unit: "us", better: "lower"},
	{name: "readat_ops_s", unit: "1/s", better: "higher"},
	{name: "http_p50_ms", unit: "ms", better: "lower"},
	{name: "http_max_rps", unit: "1/s", better: "higher"},
	{name: "peak_heap_MB", unit: "MB", better: "lower"},
	{name: "ok_ratio", unit: "ratio", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer lists the traced-run metrics, grouped by the module whose
// exported functions they time or whose counters they diff.
var perLayer = func() []metric {
	var out []metric
	// Each name carries its unit after a space; a unit prefixed with "-"
	// marks a metric where lower is better.
	add := func(layer, moves, most, little string, names ...string) {
		for _, nu := range names {
			name, unit, _ := strings.Cut(nu, " ")
			better := "higher"
			if strings.HasPrefix(unit, "-") {
				better, unit = "lower", unit[1:]
			}
			out = append(out, metric{name: name, unit: unit, better: better,
				layer: layer, moves: moves, most: most, little: little})
		}
	}
	add("blockfinder", "ttfb_ms, decode_MBps.gzip", "silesia-seq", "readat-mixed, serve-mixed (exactly 0)",
		"blockfinder.scan_MBps MB/s", "blockfinder.probes_per_chunk -count",
		"blockfinder.false_start_ratio -ratio")
	add("deflate", "decode_MBps.gzip; readat_p99_us via single-stage", "silesia-seq", "serve-mixed",
		"deflate.two_stage_MBps MB/s", "deflate.single_stage_MBps MB/s",
		"deflate.marker_ratio -ratio", "deflate.resolve_markers_MBps MB/s")
	add("core", "decode_MBps.gzip, ttfb_ms", "silesia-seq", "readat-mixed",
		"core.guess_tasks -count", "core.on_demand_decodes -count", "core.indexed_decodes -count",
		"core.writeto_self_ms -ms", "core.stall_p99_ms -ms")
	add("spanengine+filereader", "readat_p50_us, readat_p99_us; decode_MBps.* via prefetch",
		"readat-mixed", "serve-mixed (prefetch: silesia-seq most)",
		"spanengine.cache_hit_ratio ratio", "spanengine.evictions_per_op -count",
		"spanengine.span_decodes_per_op -count", "spanengine.prefetch_useful_ratio ratio",
		"spanengine.sizing_passes -count", "spanengine.source_reads_per_op -count",
		"spanengine.source_bytes_per_op -bytes")
	for _, f := range formats {
		add("codec:"+f, "readat_p50_us, readat_p99_us, open_ms, decode_MBps."+f, "readat-mixed", "serve-mixed",
			"readat."+f+".p50_us -us", "readat."+f+".p99_us -us", "readat."+f+".miss_ms -ms",
			"open."+f+"_ms -ms")
	}
	add("server", "http_p50_ms, http_max_rps", "serve-mixed", "silesia-seq, readat-mixed",
		"http_p99_ms -ms", "server.handle_hit_ratio ratio", "server.not_modified_share ratio",
		"server.body_decodes_per_req -count", "server.canceled_waits -count",
		"server.open_failures -count", "server.pool_hit_ratio ratio",
		"server.pool_evictions_per_req -count", "server.pool_peak_MB -MB",
		"server.http_self_us -us", "bench.gen_late_p99_ms -ms")
	add("go-runtime", "decode_MBps.gzip, peak_heap_MB", "silesia-seq", "serve-mixed",
		"go.alloc_bytes_per_out_byte -ratio", "go.gc_cpu_share -ratio", "go.gc_cycles -count")
	add("gzipw+shardpipe", "setup_s", "readat-mixed", "silesia-seq, serve-mixed",
		"writer.create_MBps MB/s")
	add("reference", "calibration for speedup_vs_stdlib", "silesia-seq", "-",
		"ref.stdlib_gzip_MBps MB/s", "ref.stdlib_bzip2_MBps MB/s")
	return out
}()

// formats are the codecs every workload decodes, in file order.
var formats = []string{"gzip", "bgzf", "bzip2", "zstd"}

// results collects one run's metric values; sample counts go to the
// human-readable report only.
type results struct {
	vals map[string]float64
	n    map[string]int
}

func newResults() *results {
	return &results{vals: map[string]float64{}, n: map[string]int{}}
}

func (r *results) set(name string, v float64, n int) {
	r.vals[name] = v
	r.n[name] = n
}

// emit returns the metrics of the requested kind in the output format,
// or an error naming the first one the run did not produce.
func (r *results) emit(list []metric) (map[string]any, error) {
	out := map[string]any{}
	for _, m := range list {
		v, ok := r.vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out, nil
}

// report prints every metric of list with its unit and sample count.
func (r *results) report(w io.Writer, list []metric) {
	for _, m := range list {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", m.name, r.vals[m.name], m.unit, r.n[m.name])
	}
}

// listMetrics prints every metric by name and unit, with the layer map
// for the per-layer ones.
func listMetrics(w io.Writer) {
	fmt.Fprintln(w, "end-to-end metrics (untraced runs, --trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-36s %-6s %s is better\n", m.name, m.unit, m.better)
	}
	fmt.Fprintln(w, "per-layer metrics (traced runs, --trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s %-6s %-6s layer=%s moves=%q most=%s little=%s\n",
			m.name, m.unit, m.better, m.layer, m.moves, m.most, m.little)
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(xs) || frac == 0 {
		return xs[lo]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 returns the 99th percentile, or NaN when fewer than ten samples
// lie beyond it: such a tail is not reported.
func p99(xs []float64) float64 {
	if len(xs) < 1000 {
		return math.NaN()
	}
	return quantile(xs, 0.99)
}

// windowedP99 splits xs (in time order) into windows of at least 1000
// samples and returns the median of their p99s: one burst of host
// stalls moves one window, not the result.
func windowedP99(xs []float64) float64 {
	n := len(xs) / 1000
	if n == 0 {
		return math.NaN()
	}
	var ps []float64
	for i := 0; i < n; i++ {
		w := append([]float64(nil), xs[i*len(xs)/n:(i+1)*len(xs)/n]...)
		ps = append(ps, p99(w))
	}
	return median(ps)
}

// ratio returns a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// declaration is the part of BENCHMARK.json the metric tables mirror.
type declaration struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// checkDeclaration fails when BENCHMARK.json and the program disagree
// on a workload or on a metric's name, unit or direction.
func checkDeclaration(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) != len(allWorkloads) {
		return fmt.Errorf("%s declares %d workloads, the program runs %d", path, len(d.Workloads), len(allWorkloads))
	}
	for i, w := range d.Workloads {
		if w.Name != allWorkloads[i].name {
			return fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, w.Name, allWorkloads[i].name)
		}
	}
	cmp := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s declares %d %s metrics, the program reports %d", path, len(got), kind, len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				return fmt.Errorf("%s: %s metric %d is %v, the program's is %s %s %s", path, kind, i, g, m.name, m.unit, m.better)
			}
		}
		return nil
	}
	if err := cmp("end_to_end", d.EndToEnd, endToEnd); err != nil {
		return err
	}
	return cmp("per_layer", d.PerLayer, perLayer)
}
