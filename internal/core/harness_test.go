package core

import (
	"fmt"
	"io"

	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/prefetch"
	"repro/internal/spanengine"
)

// testConfig is the flat knob set the tests tune: the codec's Config
// plus the engine's.
type testConfig struct {
	Parallelism       int
	ChunkSize         int
	MaxPrefetch       int
	AccessCacheSize   int
	Strategy          prefetch.Strategy
	VerifyChecksums   bool
	GuessedRatioLimit int
}

// reader drives a Gzip the way the public archive does: a cursor over
// the current engine, which ImportIndex replaces with one built from
// the imported index.
type reader struct {
	g    *Gzip
	src  *filereader.SharedFileReader
	fp   gzindex.Fingerprint
	ecfg spanengine.Config
	eng  *spanengine.Engine
	pos  int64
}

func newReader(comp []byte, cfg testConfig) (*reader, error) {
	src := filereader.MemoryReader(comp)
	g, err := NewGzip(src, Config{ChunkSize: cfg.ChunkSize, VerifyChecksums: cfg.VerifyChecksums, GuessedRatioLimit: cfg.GuessedRatioLimit})
	if err != nil {
		return nil, err
	}
	fp, err := gzindex.ComputeFingerprint(src, src.Size())
	if err != nil {
		return nil, err
	}
	r := &reader{g: g, src: filereader.NewShared(src), fp: fp, ecfg: spanengine.Config{
		Threads:     cfg.Parallelism,
		CacheSize:   cfg.AccessCacheSize,
		MaxPrefetch: cfg.MaxPrefetch,
		Strategy:    cfg.Strategy,
	}}
	if r.eng, err = g.NewEngine(r.src, r.ecfg); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *reader) Close() error { return r.eng.Close() }

func (r *reader) Read(p []byte) (int, error) {
	n, err := r.eng.ReadAt(p, r.pos)
	r.pos += int64(n)
	if n > 0 && err == io.EOF {
		err = nil
	}
	return n, err
}

func (r *reader) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += r.pos
	case io.SeekEnd:
		size, err := r.eng.TotalSize()
		if err != nil {
			return 0, err
		}
		offset += size
	}
	if offset < 0 {
		return 0, fmt.Errorf("negative seek position %d", offset)
	}
	r.pos = offset
	return offset, nil
}

func (r *reader) ReadAt(p []byte, off int64) (int, error) { return r.eng.ReadAt(p, off) }

func (r *reader) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for {
		i, err := r.eng.SpanAt(r.pos)
		if err == io.EOF {
			return written, nil
		}
		if err != nil {
			return written, err
		}
		data, err := r.eng.SpanContent(i)
		if err != nil {
			return written, err
		}
		off, _ := r.eng.SpanExtent(i)
		n, err := w.Write(data[r.pos-off:])
		written += int64(n)
		r.pos += int64(n)
		if err != nil {
			return written, err
		}
	}
}

func (r *reader) Size() (int64, error) { return r.eng.TotalSize() }

func (r *reader) BuildIndex() error { return r.eng.EnsureComplete() }

func (r *reader) Index() *gzindex.Index { return r.g.Index(r.eng) }

func (r *reader) CRCStatus() (bool, uint64) { return r.g.CRCStatus(r.eng) }

// ExportIndex writes the seek-point index with the source fingerprint
// and the engine's checkpoint table, as the public archive does.
func (r *reader) ExportIndex(w io.Writer) error {
	if err := r.eng.EnsureComplete(); err != nil {
		return err
	}
	ix := *r.Index()
	ix.SourceFP = &r.fp
	ct := &gzindex.CheckpointTable{Format: r.eng.Codec().FormatTag()}
	for _, s := range r.eng.Checkpoints() {
		ct.Spans = append(ct.Spans, gzindex.Checkpoint{CompOff: s.CompOff, CompEnd: s.CompEnd, DecompOff: s.DecompOff, DecompSize: s.DecompSize})
	}
	ix.Checkpoints = ct
	_, err := ix.WriteTo(w)
	return err
}

func (r *reader) ImportIndex(rd io.Reader) error {
	ix, err := gzindex.Read(rd)
	if err != nil {
		return err
	}
	if err := ix.CheckSource(r.src.Size(), r.fp); err != nil {
		return err
	}
	eng, err := r.g.EngineFromIndex(r.src, ix, r.ecfg)
	if err != nil {
		return err
	}
	r.eng.Close()
	r.eng = eng
	return nil
}
