package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestDeclaration keeps BENCHMARK.json and the program's metric and
// workload tables in step, including the fixed rates the workloads'
// descriptions state.
func TestDeclaration(t *testing.T) {
	if err := checkDeclaration("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	for i, w := range d.Workloads {
		if rate := fmt.Sprintf("%.0f req/s", allWorkloads[i].rate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: the why does not state the fixed rate %q", w.Name, rate)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and requires every check to pass and every metric of the
// run's kind to be measured.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			small := *w
			for i := range small.sizes {
				small.sizes[i] /= 8
			}
			if small.fleet > 0 {
				small.fleet, small.maxOpen = 24, 8
			}
			for _, traced := range []bool{false, true} {
				r := &run{w: &small, seed: 7, trace: &tracer{on: traced}}
				if err := r.execute(t.TempDir(), time.Second); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if n := r.failed.Load(); n != 0 {
					t.Errorf("traced=%v: %d of %d operations failed", traced, n, r.attempted.Load())
				}
				list := endToEnd
				if traced {
					list = perLayer
				}
				if _, err := r.res.emit(list); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
			}
		})
	}
}
