package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

var epoch = time.Now()

// now is the monotonic time since the process started, in ns.
func now() int64 { return int64(time.Since(epoch)) }

// since returns the seconds elapsed from start (a now() value).
func since(start int64) float64 { return float64(now()-start) / 1e9 }

// span is one timed call into a layer. Spans of one request or one
// decode share Req; Parent links a Write callback to its WriteTo.
type span struct {
	ID       int64            `json:"id"`
	Parent   int64            `json:"parent,omitempty"`
	Req      int64            `json:"req,omitempty"`
	Name     string           `json:"name"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory; write saves them when the run ends.
// A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// id reserves a span ID, so children can name a parent that is still
// open.
func (t *tracer) id() int64 {
	if !t.on {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span; id 0 allocates a fresh one.
func (t *tracer) add(id, parent, req int64, name string, start, end int64, counters map[string]int64) {
	if !t.on {
		return
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Counters: counters})
	t.mu.Unlock()
}

// write saves a header line and then one span per line as JSON.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statsDelta returns the counters of rapidgzip.Stats that moved from a
// to b, keyed by field name.
func statsDelta(a, b rapidgzip.Stats) map[string]int64 {
	out := map[string]int64{}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if d := int64(vb.Field(i).Uint() - va.Field(i).Uint()); d != 0 {
			out[va.Type().Field(i).Name] = d
		}
	}
	return out
}

// addStats accumulates s into acc field by field.
func addStats(acc *rapidgzip.Stats, s rapidgzip.Stats) {
	va, vs := reflect.ValueOf(acc).Elem(), reflect.ValueOf(s)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(va.Field(i).Uint() + vs.Field(i).Uint())
	}
}

// subStats returns b - a counter by counter.
func subStats(b, a rapidgzip.Stats) rapidgzip.Stats {
	vb, va := reflect.ValueOf(&b).Elem(), reflect.ValueOf(a)
	for i := 0; i < vb.NumField(); i++ {
		vb.Field(i).SetUint(vb.Field(i).Uint() - va.Field(i).Uint())
	}
	return b
}

// runtimeSample reads the Go runtime counters the go.* metrics diff.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/automatic:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapWatch samples the live heap (bytes marked live by the last GC,
// which depends less on GC timing than heap in use) until stopped.
type heapWatch struct {
	stop, done chan struct{}
	samples    []float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in bytes:
// the 99th percentile of the samples, so that a level held for less
// than 1% of the run does not count.
func (h *heapWatch) finish() (float64, int) {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.99), len(h.samples)
}
