// concurrent demonstrates the paper's "fast concurrent access at two
// different offsets" design goal (§3): several goroutines read disjoint
// regions of the decompressed stream through one shared Reader, the
// access pattern a user-space filesystem like ratarmount generates.
// The multi-stream prefetcher keeps both access streams ahead.
//
//	go run ./examples/concurrent [file.gz]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/gzipw"
	"repro/internal/workloads"
)

func main() {
	path := ""
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		path = demoFile()
		fmt.Printf("no input given; demo file: %s\n", path)
	}

	r, err := rapidgzip.Open(path,
		rapidgzip.WithStrategy("multistream"),
		rapidgzip.WithAccessCacheSize(16))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	size, err := r.Size()
	if err != nil {
		log.Fatal(err)
	}

	const readers = 4
	start := time.Now()
	var wg sync.WaitGroup
	totals := make([]int64, readers)
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine streams its own quarter of the file.
			lo := size * int64(g) / readers
			hi := size * int64(g+1) / readers
			buf := make([]byte, 1<<20)
			for off := lo; off < hi; {
				want := int64(len(buf))
				if hi-off < want {
					want = hi - off
				}
				n, err := r.ReadAt(buf[:want], off)
				totals[g] += int64(n)
				off += int64(n)
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total int64
	for g := 0; g < readers; g++ {
		if errs[g] != nil {
			log.Fatalf("reader %d: %v", g, errs[g])
		}
		total += totals[g]
	}
	st := r.Stats()
	fmt.Printf("%d concurrent readers consumed %d MiB in %v (%.0f MB/s aggregate)\n",
		readers, total>>20, elapsed.Round(time.Millisecond), float64(total)/1e6/elapsed.Seconds())
	fmt.Printf("chunks consumed: %d, speculative decodes: %d\n", st.ChunksConsumed, st.GuessTasks)
}

func demoFile() string {
	data := workloads.SilesiaLike(48<<20, 5)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "rapidgzip_concurrent_demo.gz")
	if err := os.WriteFile(path, comp, 0o644); err != nil {
		log.Fatal(err)
	}
	return path
}
