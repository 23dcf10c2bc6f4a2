package core

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/gzipw"
)

func TestTinyMembers(t *testing.T) {
	// Many tiny gzip members (e.g. concatenated per-record logs): lots
	// of headers/footers inside chunks, tiny final blocks everywhere.
	data := mkText(30, 200_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, MemberSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 16 << 10, VerifyChecksums: true})
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("tiny-member decode mismatch")
	}
	if ok, fails := r.CRCStatus(); !ok || fails > 0 {
		t.Fatalf("CRC: %v %d", ok, fails)
	}
}

func TestIndexBuiltAtDifferentChunkSize(t *testing.T) {
	// An index built with one chunk size must work in a reader
	// configured with another.
	data := mkText(31, 500_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r1 := open(t, comp, testConfig{Parallelism: 2, ChunkSize: 16 << 10})
	var ix bytes.Buffer
	if err := r1.ExportIndex(&ix); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 256 << 10, VerifyChecksums: true})
	if err := r2.ImportIndex(bytes.NewReader(ix.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	if ok, fails := r2.CRCStatus(); !ok || fails > 0 {
		t.Fatalf("CRC: %v %d", ok, fails)
	}
}

func TestReadPastEOF(t *testing.T) {
	data := mkText(32, 50_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r := open(t, comp, testConfig{Parallelism: 2})

	if _, err := r.Seek(int64(len(data))+1000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if n, err := r.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("read past EOF: n=%d err=%v", n, err)
	}
	// ReadAt at the exact end.
	if n, err := r.ReadAt(buf, int64(len(data))); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at EOF: n=%d err=%v", n, err)
	}
	// ReadAt straddling the end returns the tail plus EOF per io.ReaderAt.
	n, err := r.ReadAt(buf, int64(len(data))-4)
	if n != 4 || (err != io.EOF && err != nil) {
		t.Fatalf("straddling ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf[:4], data[len(data)-4:]) {
		t.Fatal("tail bytes wrong")
	}
}

func TestZeroLengthReads(t *testing.T) {
	data := mkText(33, 10_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r := open(t, comp, testConfig{Parallelism: 2})
	if n, err := r.Read(nil); n != 0 || err != nil {
		t.Fatalf("Read(nil): %d %v", n, err)
	}
	got := readAll(t, r)
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch after zero-length read")
	}
}

func TestBGZFWithChecksums(t *testing.T) {
	// Without WithVerify the architecture-level CRC chain is off, yet a
	// corrupted payload byte must still surface as a decode error or
	// wrong bytes, never as silently correct-looking output.
	data := mkText(34, 400_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(comp)
	bad[len(bad)/2] ^= 0x11
	r, err := newReader(bad, testConfig{Parallelism: 2})
	if err != nil {
		// Corruption in the member scan metadata is also acceptable.
		return
	}
	defer r.Close()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err == nil && bytes.Equal(buf.Bytes(), data) {
		t.Fatal("BGZF corruption silently ignored")
	}
}

func TestStatsIndexedDecodes(t *testing.T) {
	// Index-primed reads decode every chunk from its stored window and
	// count as indexed decodes.
	data := mkBase64(35, 600_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r1 := open(t, comp, testConfig{Parallelism: 2, ChunkSize: 32 << 10})
	var ix bytes.Buffer
	if err := r1.ExportIndex(&ix); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, comp, testConfig{Parallelism: 4, ChunkSize: 32 << 10})
	if err := r2.ImportIndex(bytes.NewReader(ix.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	s := r2.g.Stats()
	if s.IndexedDecodes == 0 {
		t.Fatalf("no indexed decodes (onDemand=%d)", s.OnDemandDecodes)
	}
}

func TestSequentialReadAfterRandomAccess(t *testing.T) {
	// Random access must not corrupt a later full sequential pass
	// (regression guard for cache/frontier interactions).
	data := mkText(36, 400_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, testConfig{Parallelism: 3, ChunkSize: 32 << 10})
	buf := make([]byte, 100)
	for _, off := range []int{300_000, 10, 200_000, 399_000, 0} {
		if _, err := r.ReadAt(buf, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("sequential pass after random access: %v", err)
	}
}
