package tarfs

import (
	"archive/tar"
	"bytes"
	"io"
	"io/fs"
	"testing"
	"testing/fstest"

	"repro/internal/core"
	"repro/internal/filereader"
	"repro/internal/gzipw"
	"repro/internal/spanengine"
	"repro/internal/workloads"
)

// buildTar writes a small archive with nested directories.
func buildTar(t *testing.T, files map[string][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for name, content := range files {
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(content)), Typeflag: tar.TypeReg,
		}); err != nil {
			t.Fatal(err)
		}
		tw.Write(content)
	}
	tw.Close()
	return buf.Bytes()
}

var sample = map[string][]byte{
	"readme.txt":        []byte("hello"),
	"data/a.bin":        bytes.Repeat([]byte{0xAB}, 4096),
	"data/b.bin":        []byte("bbbb"),
	"data/nested/c.txt": []byte("deep content"),
}

func openFS(t *testing.T, raw []byte) *FS {
	t.Helper()
	fsys, err := New(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func TestFSConformance(t *testing.T) {
	raw := buildTar(t, sample)
	fsys := openFS(t, raw)
	if err := fstest.TestFS(fsys, "readme.txt", "data/a.bin", "data/b.bin", "data/nested/c.txt"); err != nil {
		t.Fatal(err)
	}
}

func TestReadFiles(t *testing.T) {
	raw := buildTar(t, sample)
	fsys := openFS(t, raw)
	for name, want := range sample {
		got, err := fs.ReadFile(fsys, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch", name)
		}
	}
	if _, err := fs.ReadFile(fsys, "missing.txt"); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestReadDir(t *testing.T) {
	raw := buildTar(t, sample)
	fsys := openFS(t, raw)
	root, err := fsys.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 2 { // data/, readme.txt
		t.Fatalf("root has %d entries", len(root))
	}
	data, err := fsys.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 3 {
		t.Fatalf("data has %d entries", len(data))
	}
}

func TestSeekWithinFile(t *testing.T) {
	raw := buildTar(t, sample)
	fsys := openFS(t, raw)
	f, err := fsys.Open("data/a.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sk := f.(io.Seeker)
	if _, err := sk.Seek(4000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 96)
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB || buf[95] != 0xAB {
		t.Fatal("seeked read wrong")
	}
}

// TestOverIndexedGzip is the ratarmount scenario end to end: tarfs on
// top of the parallel gzip engine, random access to members of a
// compressed archive.
func TestOverIndexedGzip(t *testing.T) {
	tarball := workloads.SilesiaLike(2<<20, 3) // a real TAR by construction
	comp, _, err := gzipw.Compress(tarball, gzipw.Options{Level: 6, BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	src := filereader.MemoryReader(comp)
	g, err := core.NewGzip(src, core.Config{ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := g.NewEngine(filereader.NewShared(src), spanengine.Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	size, err := eng.TotalSize()
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := New(eng, size)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := fsys.ReadDir("silesia")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("only %d members", len(entries))
	}
	// Random access to one member must match the serial ground truth.
	name := "silesia/" + entries[len(entries)/2].Name()
	got, err := fs.ReadFile(fsys, name)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from a plain tar walk.
	tr := tar.NewReader(bytes.NewReader(tarball))
	for {
		hdr, err := tr.Next()
		if err != nil {
			t.Fatalf("member %q not found serially", name)
		}
		if hdr.Name == name {
			want, _ := io.ReadAll(tr)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: tarfs content differs from serial tar read", name)
			}
			return
		}
	}
}
