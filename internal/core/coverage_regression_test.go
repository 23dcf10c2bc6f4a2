package core

import (
	"math/rand"
	"testing"

	"repro/internal/gzipw"
)

// TestChunkCoverageAfterRandomAccess is a regression test: the span
// serving a random-access offset must actually cover that offset, and
// its cached content must match its table extent — the bespoke chunk
// path once cached unit payloads under entries they did not cover.
func TestChunkCoverageAfterRandomAccess(t *testing.T) {
	data := mkText(6, 600_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		off := rng.Intn(len(data) - 100)
		i, err := r.eng.SpanAt(int64(off))
		if err != nil {
			t.Fatalf("trial %d off %d: %v", trial, off, err)
		}
		content, err := r.eng.SpanContent(i)
		if err != nil {
			t.Fatal(err)
		}
		start, size := r.eng.SpanExtent(i)
		if int64(len(content)) != size {
			t.Fatalf("span %d: content %d bytes, table says %d", i, len(content), size)
		}
		if int64(off) < start || int64(off) >= start+size {
			t.Fatalf("not covered: off=%d span %d=[%d,+%d)", off, i, start, size)
		}
	}
}
