package rapidgzip

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/workloads"
)

// TestSharedPoolAcrossArchives opens every format against one small
// CachePool and hammers random access: the pool's resident bytes must
// never exceed the budget (a hot archive evicts a cold one's spans
// instead of growing), per-archive Stats must stay live, and closing
// archives must release their bytes back to the budget.
func TestSharedPoolAcrossArchives(t *testing.T) {
	data := workloads.Base64(600_000, 31)
	fixtures := spanFixtures(t, data)

	const budget = 128 << 10 // far below the 600k working set per archive
	pool := NewCachePool(budget)

	var archives []Archive
	for format, comp := range fixtures {
		a, err := OpenBytes(comp, WithSharedPool(pool), WithParallelism(2))
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		defer a.Close()
		archives = append(archives, a)
	}
	if got := pool.Stats().Archives; got != len(archives) {
		t.Fatalf("pool reports %d archives, want %d", got, len(archives))
	}

	rng := rand.New(rand.NewSource(99))
	buf := make([]byte, 512)
	for i := 0; i < 300; i++ {
		a := archives[rng.Intn(len(archives))]
		off := rng.Int63n(int64(len(data) - len(buf)))
		if _, err := a.ReadAt(buf, off); err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
			t.Fatalf("ReadAt(%d): content mismatch", off)
		}
	}

	ps := pool.Stats()
	if ps.PeakBytes > ps.BudgetBytes {
		t.Errorf("peak %d exceeded budget %d", ps.PeakBytes, ps.BudgetBytes)
	}
	if ps.UsedBytes > ps.BudgetBytes {
		t.Errorf("used %d exceeds budget %d", ps.UsedBytes, ps.BudgetBytes)
	}
	if ps.Evictions == 0 {
		t.Error("no pool evictions despite working set >> budget")
	}
	if ps.Hits == 0 {
		t.Error("no pool hits despite repeated access")
	}

	// Per-archive stats keep working in pool mode: the engine's cache
	// counters are the pooled view's.
	var liveStats int
	for _, a := range archives {
		s := a.Stats()
		if s.SpanCacheHits+s.SpanCacheMisses > 0 {
			liveStats++
		}
	}
	if liveStats == 0 {
		t.Error("no archive reports span-cache activity through the pool")
	}

	// Closing archives releases their cached bytes back to the budget.
	for _, a := range archives {
		a.Close()
	}
	ps = pool.Stats()
	if ps.UsedBytes != 0 || ps.Entries != 0 {
		t.Errorf("after closing all archives: used=%d entries=%d, want 0/0", ps.UsedBytes, ps.Entries)
	}
	if ps.Archives != 0 {
		t.Errorf("after closing all archives: %d archives still registered", ps.Archives)
	}
}

// TestSharedPoolSurvivesImportIndex pins a subtle plumbing property:
// ImportIndex builds a new engine, and that engine must still cache
// into the shared pool (the archive retains its full open
// configuration).
func TestSharedPoolSurvivesImportIndex(t *testing.T) {
	data := workloads.Base64(200_000, 5)
	comp := spanFixtures(t, data)[FormatLZ4]

	pool := NewCachePool(1 << 20)
	a, err := OpenBytes(comp, WithSharedPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var ix bytes.Buffer
	if err := a.ExportIndex(&ix); err != nil {
		t.Fatal(err)
	}
	if err := a.ImportIndex(&ix); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := a.ReadAt(buf, 100_000); err != nil {
		t.Fatal(err)
	}
	if ps := pool.Stats(); ps.UsedBytes == 0 {
		t.Error("rebuilt backend caches nothing into the shared pool")
	}
}

// TestWithSharedPoolNil rejects the nil pool at option time.
func TestWithSharedPoolNil(t *testing.T) {
	if _, err := OpenBytes([]byte{0x1f, 0x8b}, WithSharedPool(nil)); err == nil {
		t.Fatal("WithSharedPool(nil) accepted")
	}
}

// TestDecompressedSize pins the no-decode size contract: span formats
// know the size from construction; plain gzip only after its table is
// complete (scan or index), BGZF immediately via the metadata scan —
// and the answer always matches Size().
func TestDecompressedSize(t *testing.T) {
	data := workloads.Base64(150_000, 3)
	for format, comp := range spanFixtures(t, data) {
		t.Run(format.String(), func(t *testing.T) {
			a, err := OpenBytes(comp)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			size, ok := a.DecompressedSize()
			if format == FormatGzip {
				// A cold plain-gzip open has not scanned yet; the cheap
				// answer must refuse rather than trigger a decode.
				if ok {
					t.Fatal("plain gzip reports a size before any scan")
				}
				if err := a.BuildIndex(); err != nil {
					t.Fatal(err)
				}
				size, ok = a.DecompressedSize()
			}
			if !ok || size != int64(len(data)) {
				t.Fatalf("DecompressedSize = %d, %v; want %d, true", size, ok, len(data))
			}
			full, err := a.Size()
			if err != nil || full != size {
				t.Fatalf("Size() = %d, %v disagrees with DecompressedSize %d", full, err, size)
			}
		})
	}
}

// TestCloseVsReadAtRace closes file-backed archives while readers are
// mid-flight: every reader must finish with either valid data or the
// typed ErrClosed — never a raw pread-on-closed-fd error, and never a
// race-detector report (this test is the -race workload).
func TestCloseVsReadAtRace(t *testing.T) {
	data := workloads.Base64(400_000, 17)
	for format, comp := range spanFixtures(t, data) {
		t.Run(format.String(), func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "race."+format.String())
			if err := os.WriteFile(full, comp, 0o644); err != nil {
				t.Fatal(err)
			}
			a, err := Open(full, WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}

			const readers = 8
			var wg sync.WaitGroup
			errC := make(chan error, readers)
			start := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					buf := make([]byte, 1024)
					<-start
					for {
						off := rng.Int63n(int64(len(data) - len(buf)))
						if _, err := a.ReadAt(buf, off); err != nil {
							errC <- err
							return
						}
					}
				}(r)
			}
			close(start)
			// Let the readers actually get in flight before closing.
			probe := make([]byte, 64)
			a.ReadAt(probe, 0)
			if err := a.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			wg.Wait()
			close(errC)
			for err := range errC {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("reader error not ErrClosed: %v", err)
				}
			}
		})
	}
}
