// Quickstart: decompress a gzip file on all cores with the public API.
//
// Run with a file argument to decompress it, or with no arguments to
// see a self-contained demo on generated data:
//
//	go run ./examples/quickstart [file.gz]
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
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

	// Open sniffs the format from the content — the same call would
	// handle a .bz2 or .lz4 input.
	r, err := rapidgzip.Open(path, rapidgzip.WithVerify(true))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	fmt.Printf("detected format: %s (capabilities %+v)\n", r.Format(), r.Capabilities())

	start := time.Now()
	n, err := io.Copy(io.Discard, r) // replace io.Discard with any sink
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	st := r.Stats()
	fmt.Printf("decompressed %d MiB in %v (%.0f MB/s)\n", n>>20, elapsed.Round(time.Millisecond),
		float64(n)/1e6/elapsed.Seconds())
	fmt.Printf("chunks consumed: %d, speculative decodes: %d, on-demand decodes: %d\n",
		st.ChunksConsumed, st.GuessTasks, st.OnDemandDecodes)
	ok, fails := r.(interface{ CRCVerified() (bool, uint64) }).CRCVerified()
	fmt.Printf("checksums verified: %v (%d failures)\n", ok, fails)
}

// demoFile writes a pigz-style compressed base64 workload to a temp
// file, the setup of the paper's Figure 9.
func demoFile() string {
	data := workloads.Base64(64<<20, 1)
	opts, _ := gzipw.Preset("pigz -6")
	comp, _, err := gzipw.Compress(data, opts)
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "rapidgzip_quickstart.gz")
	if err := os.WriteFile(path, comp, 0o644); err != nil {
		log.Fatal(err)
	}
	return path
}
