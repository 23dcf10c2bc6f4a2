package rapidgzip

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"io/fs"

	"repro/internal/workloads"
)

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, _ := gzip.NewWriterLevel(&buf, 6)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	w.Close()
	return buf.Bytes()
}

func TestOpenAndCopy(t *testing.T) {
	data := workloads.Base64(1_000_000, 1)
	path := filepath.Join(t.TempDir(), "data.gz")
	if err := os.WriteFile(path, gzipBytes(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, WithParallelism(4), WithChunkSize(64<<10), WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out bytes.Buffer
	if _, err := io.Copy(&out, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("mismatch: %d vs %d bytes", out.Len(), len(data))
	}
	if ok, fails := r.(*archive).CRCVerified(); !ok || fails > 0 {
		t.Fatalf("CRC: ok=%v fails=%d", ok, fails)
	}
	if s := r.Stats(); s.ChunksConsumed == 0 {
		t.Fatal("no chunks consumed?")
	}
}

// TestNewReaderFromFile reads a file-backed gzip archive through Read
// rather than WriteTo.
func TestNewReaderFromFile(t *testing.T) {
	data := workloads.FASTQ(400_000, 2)
	path := filepath.Join(t.TempDir(), "reads.fastq.gz")
	if err := os.WriteFile(path, gzipBytes(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, WithParallelism(2), WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("mismatch (err=%v)", err)
	}
}

func TestSeekReadAt(t *testing.T) {
	data := workloads.SilesiaLike(800_000, 3)
	r, err := OpenBytes(gzipBytes(t, data), WithParallelism(3), WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if size, err := r.Size(); err != nil || size != int64(len(data)) {
		t.Fatalf("size %d err %v", size, err)
	}
	// Seek + Read.
	if _, err := r.Seek(500_000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[500_000:501_024]) {
		t.Fatal("seek+read mismatch")
	}
	// ReadAt does not disturb the cursor.
	at := make([]byte, 512)
	if _, err := r.ReadAt(at, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(at, data[100:612]) {
		t.Fatal("ReadAt mismatch")
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[501_024:502_048]) {
		t.Fatal("cursor was disturbed by ReadAt")
	}
}

func TestIndexRoundTripPublicAPI(t *testing.T) {
	data := workloads.Base64(600_000, 4)
	comp := gzipBytes(t, data)

	r1, err := OpenBytes(comp, WithParallelism(2), WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	var ix bytes.Buffer
	if err := r1.ExportIndex(&ix); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	r2, err := OpenBytes(comp, WithParallelism(2), WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.ImportIndex(bytes.NewReader(ix.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r2)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("index-primed read mismatch (err=%v)", err)
	}
	if s := r2.Stats(); s.GuessTasks != 0 {
		t.Fatalf("index-primed read ran %d speculative decodes", s.GuessTasks)
	}
}

func TestOpenWithIndex(t *testing.T) {
	data := workloads.SilesiaLike(900_000, 41)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.gz")
	ixPath := filepath.Join(dir, "data.gz.rgzidx")
	if err := os.WriteFile(path, gzipBytes(t, data), 0o644); err != nil {
		t.Fatal(err)
	}

	// First run: decompress once, save the index.
	r1, err := Open(path, WithParallelism(4), WithChunkSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	ixf, err := os.Create(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.ExportIndex(ixf); err != nil {
		t.Fatal(err)
	}
	if err := ixf.Close(); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	// Second run: reopen with the saved index; no block-finder probes,
	// no speculative decodes, byte-identical output.
	r2, err := Open(path, WithIndexFile(ixPath), WithParallelism(4), WithChunkSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, err := io.ReadAll(r2)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("index-primed read mismatch (err=%v)", err)
	}
	if s := r2.Stats(); s.GuessTasks != 0 || s.FinderProbes != 0 {
		t.Fatalf("import path ran the block finder: %d tasks, %d probes", s.GuessTasks, s.FinderProbes)
	}

	// ReadAt without any prior sequential read, straight off the index.
	r3, err := Open(path, WithIndexFile(ixPath), WithParallelism(2), WithChunkSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	buf := make([]byte, 4096)
	off := len(data)/2 + 12345
	if _, err := r3.ReadAt(buf, int64(off)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+len(buf)]) {
		t.Fatal("ReadAt with imported index mismatch")
	}

	// A wrong index file must be rejected at open time.
	other := filepath.Join(dir, "other.gz")
	os.WriteFile(other, gzipBytes(t, workloads.Base64(100_000, 42)), 0o644)
	if _, err := Open(other, WithIndexFile(ixPath)); err == nil {
		t.Fatal("index for a different file accepted")
	}
	if _, err := Open(path, WithIndexFile(other)); err == nil {
		t.Fatal("gzip file accepted as an index")
	}
	if _, err := Open(path, WithIndexFile(filepath.Join(dir, "missing"))); err == nil {
		t.Fatal("missing index file accepted")
	}
}

// TestImportIndexConsumesExactBytes: Archive.ImportIndex reads exactly
// the index bytes from its reader, so an index embedded in a larger
// stream leaves the data after it unread; a truncated index fails the
// import and leaves the archive serving from its previous engine.
func TestImportIndexConsumesExactBytes(t *testing.T) {
	data := workloads.FASTQ(500_000, 43)
	comp := gzipBytes(t, data)
	r1, err := OpenBytes(comp, WithParallelism(2), WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	var ix bytes.Buffer
	if err := r1.ExportIndex(&ix); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	r2, err := OpenBytes(comp, WithParallelism(3), WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.ImportIndex(bytes.NewReader(ix.Bytes()[:ix.Len()/2])); err == nil {
		t.Fatal("truncated index accepted")
	}
	stream := append(bytes.Clone(ix.Bytes()), []byte("TRAILER AFTER THE INDEX")...)
	sr := bytes.NewReader(stream)
	if err := r2.ImportIndex(sr); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(sr)
	if err != nil || string(rest) != "TRAILER AFTER THE INDEX" {
		t.Fatalf("import over-consumed the stream: %d bytes left (%q)", len(rest), rest)
	}
	got, err := io.ReadAll(r2)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("mismatch (err=%v)", err)
	}
	if s := r2.Stats(); s.FinderProbes != 0 {
		t.Fatalf("import path probed the block finder %d times", s.FinderProbes)
	}
}

func TestStrategyNames(t *testing.T) {
	data := workloads.Base64(300_000, 5)
	comp := gzipBytes(t, data)
	for _, s := range []string{"", "adaptive", "fixed", "multistream"} {
		r, err := OpenBytes(comp, WithParallelism(2), WithChunkSize(32<<10), WithStrategy(s))
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%q: mismatch (err=%v)", s, err)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.gz")); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "not.gz")
	os.WriteFile(path, []byte("not gzip data"), 0o644)
	if _, err := Open(path); err == nil {
		t.Fatal("non-gzip file accepted")
	}
}

func TestTarFS(t *testing.T) {
	// The ratarmount scenario through the public API: list and read
	// members of a .tar.gz via io/fs.
	tarball := workloads.SilesiaLike(2<<20, 6) // a real TAR by construction
	r, err := OpenBytes(gzipBytes(t, tarball), WithParallelism(3), WithChunkSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fsys, err := TarFS(r)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := fs.ReadDir(fsys, "silesia")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("only %d members", len(entries))
	}
	data, err := fs.ReadFile(fsys, "silesia/"+entries[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty member")
	}
	// Walk the whole tree.
	count := 0
	err = fs.WalkDir(fsys, ".", func(string, fs.DirEntry, error) error {
		count++
		return nil
	})
	if err != nil || count < 4 {
		t.Fatalf("walk: %d entries, %v", count, err)
	}
}
