package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/blockfinder"
	"repro/internal/crc32x"
	"repro/internal/deflate"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/pool"
	"repro/internal/spanengine"
)

// spanMeta is the gzip-side metadata of one span-engine table entry:
// the exact bit extent (the span table itself only keeps byte extents),
// the window bookkeeping, and the member marks needed for CRC
// verification.
type spanMeta struct {
	startBit, endBit  uint64
	startDecomp, size uint64
	atMemberStart     bool
	endIsEOF          bool
	// members records every gzip member end inside (or at the end of)
	// this entry, captured when the entry was confirmed or imported
	// with the index. Sequential CRC verification checks each consumed
	// span against these marks.
	members []memberMark
}

// memberMark is the footer of a member ending inside a confirmed entry:
// the absolute decompressed offset where the member ends and the CRC32
// its footer declares.
type memberMark struct {
	absEnd uint64
	crc    uint32
}

// futureChunk is the future of an in-flight speculative chunk decode.
type futureChunk = pool.Future[*deflate.ChunkResult]

// gzipCodec is the deflate chunk pipeline expressed as a
// spanengine.GrowingCodec: the engine owns the cache, the prefetch
// strategy and the tentative pool; the codec owns the gzip-specific
// parts — block-finder speculation over grid cells, serial window
// propagation, chunk splitting, the seek-point index, and the
// member-CRC chain. BGZF files take the complete-table path instead
// (Scan enumerates members from metadata), which makes them an exact
// span source like bzip2/LZ4/zstd.
type gzipCodec struct {
	cfg         Config
	maxPrefetch int // bound on in-flight speculative decodes (the engine's MaxPrefetch)
	src         *filereader.SharedFileReader
	fileBits    uint64
	bgzf        bool
	cnt         *counters

	// mu guards the chunk geometry and speculation bookkeeping. Lock
	// order: an engine-mutex holder may take mu (Speculate); a tentMu
	// holder may take mu (TentativeEvicted); crcMu holders may take mu
	// (SpanAccessed). Nothing holding mu may call engine methods that
	// take the engine mutex or the tentative pool's mutex.
	mu             sync.Mutex
	metas          []spanMeta
	byOff          map[int64]int // span CompOff -> metas index
	index          *gzindex.Index
	marksKnown     bool
	frontierBit    uint64
	frontierDecomp uint64
	frontierWindow []byte
	memberStart    uint64 // decompressed offset where the current member began
	eof            bool
	guessIssued    map[uint64]bool
	noBlock        map[uint64]bool
	inflightGuess  map[uint64]*futureChunk

	// Sequential CRC verification state (valid while consumption stays
	// in table order from span 0). crcMu holders may take mu; never the
	// reverse.
	crcMu     sync.Mutex
	crcNext   int
	crcAcc    uint32
	crcBroken bool
	consumed  map[int]bool
}

// newGzipCodec returns a codec of g with empty geometry over src.
func newGzipCodec(g *Gzip, src *filereader.SharedFileReader, maxPrefetch int) *gzipCodec {
	c := &gzipCodec{
		cfg:           g.cfg,
		maxPrefetch:   maxPrefetch,
		src:           src,
		fileBits:      uint64(src.Size()) * 8,
		bgzf:          g.bgzf,
		cnt:           &g.cnt,
		byOff:         map[int64]int{},
		index:         gzindex.New(g.cfg.ChunkSize),
		marksKnown:    true,
		guessIssued:   map[uint64]bool{},
		noBlock:       map[uint64]bool{},
		inflightGuess: map[uint64]*futureChunk{},
		consumed:      map[int]bool{},
	}
	c.index.CompressedSize = uint64(src.Size())
	return c
}

func (c *gzipCodec) chunkBits() uint64 { return uint64(c.cfg.ChunkSize) * 8 }

// FormatTag identifies the codec in persisted checkpoint tables.
func (c *gzipCodec) FormatTag() string {
	if c.bgzf {
		return "bgzf"
	}
	return "gzip"
}

// Scan is the sizing pass. Only the BGZF metadata walk implements it
// (see bgzf.go); generic gzip runs in growing mode, where Scan is never
// called.
func (c *gzipCodec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	if c.bgzf {
		return c.scanBGZF()
	}
	return spanengine.ScanResult{}, errors.New("core: gzip has no metadata sizing pass (growing mode only)")
}

// DecodeSpan decodes one confirmed span with its stored window — the
// fast path used for prefetches and random access once the entry exists
// (§3.3, §4.4: "the output buffer can be allocated beforehand ...
// marker replacement can be skipped"). The compressed bytes are read
// once, bounded to the span's extent, so source traffic stays
// proportional to what is actually decoded.
func (c *gzipCodec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	c.mu.Lock()
	i, ok := c.byOff[s.CompOff]
	if !ok || int64(c.metas[i].startDecomp) != s.DecompOff {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: no chunk metadata for span at byte %d", s.CompOff)
	}
	m := c.metas[i]
	window, hasWin := c.index.Window(m.startBit)
	marksKnown := c.marksKnown
	c.mu.Unlock()

	if !hasWin && !m.atMemberStart {
		return nil, fmt.Errorf("core: no window for chunk at bit %d", m.startBit)
	}
	res, err := c.decodeMeta(m, window)
	if err != nil {
		return nil, err
	}
	c.cnt.indexed.Add(1)
	if !marksKnown {
		// Legacy index import (no persisted member marks): learn the
		// marks from the decode result's own footer events so the CRC
		// chain can verify this span. Assignment (not append) keeps a
		// racing duplicate decode idempotent.
		var members []memberMark
		for j := range res.Members {
			members = append(members, memberMark{
				absEnd: m.startDecomp + res.Members[j].DecompOffset,
				crc:    res.Members[j].Footer.CRC32,
			})
		}
		c.mu.Lock()
		c.metas[i].members = members
		c.mu.Unlock()
	}
	segs, err := res.Resolved(nil)
	if err != nil {
		return nil, err
	}
	return flattenRange(segs, 0, m.size), nil
}

// decodeMeta decodes one confirmed entry over a single bounded read of
// its compressed extent, using the custom single-stage decoder. It
// handles every chunk shape — member boundaries included. Safe for
// concurrent calls: it touches no mutable codec state.
func (c *gzipCodec) decodeMeta(m spanMeta, window []byte) (res *deflate.ChunkResult, err error) {
	fileSize := int64(c.fileBits / 8)
	byteStart := int64(m.startBit / 8)
	// The decoder reads the next block's header fields before checking
	// the stop condition (up to ~6 bytes past the entry for a stored
	// block's LEN/NLEN), so the read window carries a small slack margin
	// past the entry's last bit.
	byteEnd := int64((m.endBit+7)/8) + 64
	if m.endIsEOF || byteEnd > fileSize {
		byteEnd = fileSize
	}
	buf := make([]byte, byteEnd-byteStart)
	if n, rerr := c.src.ReadAt(buf, byteStart); rerr != nil && n < len(buf) {
		return nil, rerr
	}
	relStart := m.startBit - uint64(byteStart)*8
	relEnd := m.endBit - uint64(byteStart)*8

	br := bitio.NewBitReaderBytes(buf)
	var dec deflate.Decoder
	stop := relEnd
	if m.endIsEOF {
		stop = deflate.StopAtEOF
	}
	out, err := dec.DecodeChunk(br, deflate.ChunkConfig{
		Start:              relStart,
		Stop:               stop,
		StopBeforeMember:   stop,
		Window:             window,
		StartsAtGzipHeader: m.atMemberStart,
		SizeHint:           int(m.size),
		// The block at the entry's end bit need not be stop-eligible
		// (sharded writers can open the next shard with a final or
		// Fixed block); the index size bounds the decode instead, and
		// the caller trims any same-block overshoot with flattenRange.
		StopAtOutput: m.size,
	})
	if err != nil {
		return nil, fmt.Errorf("core: indexed chunk at bit %d: %w", m.startBit, err)
	}
	if out.TotalOut() < m.size {
		return nil, fmt.Errorf("core: indexed chunk at bit %d decoded %d bytes, index says %d",
			m.startBit, out.TotalOut(), m.size)
	}
	return out, nil
}

// --- growing mode --------------------------------------------------------

// GrowNext confirms the next decode unit: it obtains the result for the
// exact frontier offset (tentative pool, in-flight speculation, or
// on-demand decode), propagates the window serially, verifies member
// sizes, splits oversized units into index entries, appends the
// resulting spans, and primes their contents — paper Figure 4 steps
// 5-6, with the engine's tentative pool playing the role of the result
// cache keyed by exact start offset.
func (c *gzipCodec) GrowNext(e *spanengine.Engine) (bool, error) {
	c.mu.Lock()
	if c.eof {
		c.mu.Unlock()
		return true, nil
	}
	E := c.frontierBit
	atMember := len(c.metas) == 0 // unit 0 starts at the gzip header
	window := c.frontierWindow
	c.mu.Unlock()

	res, err := c.obtainFrontier(e, E, atMember, window)
	if err != nil {
		return false, err
	}
	total := res.TotalOut()

	// Serial window propagation: resolve only the final <=32 KiB
	// (paper §2.2 — the non-parallelizable Amdahl term).
	newWindow, err := res.WindowAt(total, window)
	if err != nil {
		return false, fmt.Errorf("core: window propagation: %w", err)
	}

	c.mu.Lock()
	// ISIZE verification for every member ending inside this unit.
	for i := range res.Members {
		ev := &res.Members[i]
		absEnd := c.frontierDecomp + ev.DecompOffset
		size := absEnd - c.memberStart
		if uint32(size) != ev.Footer.ISize {
			c.mu.Unlock()
			return false, fmt.Errorf("core: gzip ISIZE mismatch at offset %d: footer %d, decoded %d",
				absEnd, ev.Footer.ISize, uint32(size))
		}
		c.memberStart = absEnd
	}

	// Record the unit, splitting oversized outputs into multiple index
	// entries so decompressed chunk sizes stay comparable (§1.4).
	unitStart := len(c.metas)
	splits := c.splitPoints(res)
	startBit := E
	startDecomp := c.frontierDecomp
	for _, sp := range splits {
		m := spanMeta{
			startBit:      startBit,
			endBit:        sp.endBit,
			startDecomp:   startDecomp,
			size:          c.frontierDecomp + sp.endDecomp - startDecomp,
			atMemberStart: unitStart == 0 && startBit == 0,
		}
		if err := c.index.Add(gzindex.SeekPoint{
			CompressedBitOffset: m.startBit,
			UncompressedOffset:  m.startDecomp,
			AtMemberStart:       m.atMemberStart,
		}, c.windowForLocked(m, res, window)); err != nil {
			c.mu.Unlock()
			return false, err
		}
		c.metas = append(c.metas, m)
		startBit = sp.endBit
		startDecomp = c.frontierDecomp + sp.endDecomp
	}
	c.metas[len(c.metas)-1].endIsEOF = res.EndIsEOF
	c.recordMemberMarksLocked(unitStart, res)

	// Byte-partition the unit into engine spans. Entry boundaries are
	// bit offsets; the span table carries byte extents, keyed back to
	// the metadata by the start byte (distinct for any realistic chunk
	// size: deflate's ~1032x ratio cap keeps entries > 1 byte apart).
	fileSize := int64(c.fileBits / 8)
	spans := make([]spanengine.Span, 0, len(c.metas)-unitStart)
	for i := unitStart; i < len(c.metas); i++ {
		m := &c.metas[i]
		compEnd := int64(m.endBit / 8)
		if m.endIsEOF {
			compEnd = fileSize
		}
		s := spanengine.Span{
			CompOff:    int64(m.startBit / 8),
			CompEnd:    compEnd,
			DecompOff:  int64(m.startDecomp),
			DecompSize: int64(m.size),
		}
		if _, dup := c.byOff[s.CompOff]; dup {
			c.mu.Unlock()
			return false, fmt.Errorf("core: two chunk entries share start byte %d (chunk size too small)", s.CompOff)
		}
		c.byOff[s.CompOff] = i
		spans = append(spans, s)
	}

	c.frontierWindow = newWindow
	c.frontierBit = res.EndBit
	c.frontierDecomp += total
	eof := res.EndIsEOF
	if eof {
		c.eof = true
		c.index.Finalized = true
		c.index.UncompressedSize = c.frontierDecomp
	}
	var markWindow []byte
	if len(res.Marked) > 0 {
		markWindow = window
	}
	c.mu.Unlock()

	base := e.AppendSpans(spans...)
	// Dispatch this unit's full marker replacement to the pool right
	// away (paper Figure 4, step 5) — confirmation of the next unit
	// does not wait for it, so replacements overlap. Every entry of the
	// unit shares the one resolution.
	shared := pool.Go(e.Pool(), func() ([][]byte, error) {
		return res.Resolved(markWindow)
	})
	rel := uint64(0)
	for j, s := range spans {
		lo, hi := rel, rel+uint64(s.DecompSize)
		e.Prime(base+j, func() ([]byte, error) {
			segs, err := shared.Wait()
			if err != nil {
				return nil, err
			}
			return flattenRange(segs, lo, hi), nil
		})
		rel = hi
	}
	if eof {
		c.drainGuesses()
	}
	return eof, nil
}

// GrowReady reports whether the next GrowNext would complete without
// blocking: a speculative result is parked at the exact frontier key.
// The engine uses it to confirm ready units opportunistically, keeping
// the serial confirmation walk ahead of consumption.
func (c *gzipCodec) GrowReady(e *spanengine.Engine) bool {
	c.mu.Lock()
	E := c.frontierBit
	eof := c.eof
	c.mu.Unlock()
	return !eof && e.HasTentative(E)
}

// obtainFrontier fetches the decode result starting exactly at bit E —
// paper Figure 4: the consumer requests chunks by the exact end offset
// of the previous chunk; mismatches fall back to an on-demand decode.
func (c *gzipCodec) obtainFrontier(e *spanengine.Engine, E uint64, atMember bool, window []byte) (*deflate.ChunkResult, error) {
	if v, ok := e.TakeTentative(E); ok {
		return v.(*deflate.ChunkResult), nil
	}
	g := E / c.chunkBits()
	c.mu.Lock()
	fut := c.inflightGuess[g]
	c.mu.Unlock()
	if fut != nil {
		res, err := fut.Wait()
		if err == nil {
			if res.StartBit == E {
				// The task parked its result before resolving; claim it
				// (it may already have aged out, the direct result is
				// just as good).
				e.TakeTentative(E)
				return res, nil
			}
			c.cnt.guessFalseStarts.Add(1)
		}
	}
	// On-demand exact decode with the known window (single-stage).
	c.cnt.onDemand.Add(1)
	stop := (E/c.chunkBits() + 1) * c.chunkBits()
	br := bitio.NewBitReader(c.src, int64(c.fileBits/8))
	var dec deflate.Decoder
	res, err := dec.DecodeChunk(br, deflate.ChunkConfig{
		Start:              E,
		Stop:               stop,
		Window:             window,
		StartsAtGzipHeader: atMember,
		SizeHint:           4 * c.cfg.ChunkSize,
	})
	if err != nil {
		return nil, fmt.Errorf("core: decode at bit %d: %w", E, err)
	}
	return res, nil
}

// Speculate maps a prefetch candidate beyond the confirmed table to a
// grid cell past the frontier and dispatches a speculative block-finder
// decode for it. Called with the engine's mutex held: bookkeeping plus
// pool submission only.
func (c *gzipCodec) Speculate(e *spanengine.Engine, cand uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eof {
		return
	}
	cb := c.chunkBits()
	gap := uint64(0)
	if n := uint64(len(c.metas)); cand > n {
		gap = cand - n
	}
	g := c.frontierBit/cb + 1 + gap
	if g*cb >= c.fileBits || c.guessIssued[g] || c.noBlock[g] ||
		c.inflightGuess[g] != nil || len(c.inflightGuess) >= c.maxPrefetch {
		return
	}
	c.guessIssued[g] = true
	c.cnt.guessTasks.Add(1)
	// The task records its own outcome before the future resolves, so a
	// frontier consumer that waits on the future always finds the
	// result parked (or the cell marked no-block) afterwards.
	c.inflightGuess[g] = pool.GoLow(e.Pool(), func() (*deflate.ChunkResult, error) {
		res, err := c.guessTask(g)
		switch {
		case err == nil:
			e.PutTentative(res.StartBit, res)
		case errors.Is(err, errNoBlock):
			c.cnt.guessNoBlock.Add(1)
			c.mu.Lock()
			c.noBlock[g] = true
			c.mu.Unlock()
		}
		c.mu.Lock()
		delete(c.inflightGuess, g)
		c.mu.Unlock()
		return res, err
	})
}

// TentativeEvicted re-arms the guessed-cell bitmap when the tentative
// pool drops a parked result, so the speculation can be retried.
func (c *gzipCodec) TentativeEvicted(key uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.guessIssued, key/c.chunkBits())
}

// drainGuesses settles every speculative task still in flight once the
// frontier has reached EOF. No future frontier request will ever wait
// on them, so without this their outcomes (no-block cells, usable
// results for later random access) could go unrecorded — a single-block
// file would report zero no-block cells despite having probed every
// one of them.
func (c *gzipCodec) drainGuesses() {
	for {
		c.mu.Lock()
		var fut *pool.Future[*deflate.ChunkResult]
		for _, f := range c.inflightGuess {
			fut = f
			break
		}
		c.mu.Unlock()
		if fut == nil {
			return
		}
		// The task removes itself from the map (and records its outcome)
		// before the future resolves.
		fut.Wait() //nolint:errcheck // outcomes are recorded by the task itself
	}
}

// guessTask searches cell g for a block start and decodes from it with
// markers (paper Figure 4, steps 4-5). It runs on a worker goroutine
// and touches no mutable codec state.
func (c *gzipCodec) guessTask(g uint64) (*deflate.ChunkResult, error) {
	cb := c.chunkBits()
	B := g * cb
	stop := B + cb
	end := stop
	if end > c.fileBits {
		end = c.fileBits
	}
	// Search buffer: the cell plus margin so headers that spill past the
	// boundary can still be validated.
	bufStart := int64(B / 8)
	bufEnd := int64((end+7)/8) + 512
	if bufEnd > int64(c.fileBits/8) {
		bufEnd = int64(c.fileBits / 8)
	}
	buf := make([]byte, bufEnd-bufStart)
	if n, err := c.src.ReadAt(buf, bufStart); err != nil && n < len(buf) {
		return nil, err
	}
	finder := blockfinder.NewCombinedFinder()
	br := bitio.NewBitReader(c.src, int64(c.fileBits/8))
	var dec deflate.Decoder
	searchFrom := B - uint64(bufStart)*8
	for {
		c.cnt.finderProbes.Add(1)
		cand, ok := finder.Next(buf, searchFrom)
		abs := uint64(bufStart)*8 + cand
		if !ok || abs >= end {
			return nil, errNoBlock
		}
		res, err := dec.DecodeChunk(br, deflate.ChunkConfig{
			Start:           abs,
			Stop:            stop,
			TwoStage:        true,
			MaxDecompressed: uint64(c.cfg.GuessedRatioLimit) * uint64(c.cfg.ChunkSize),
			SizeHint:        2 * c.cfg.ChunkSize,
		})
		if err == nil {
			return res, nil
		}
		searchFrom = cand + 1
	}
}

// splitPoint delimits one index entry inside a decode unit.
type splitPoint struct {
	endBit    uint64 // compressed end of this entry
	endDecomp uint64 // decompressed end within the unit output
}

// splitPoints returns entry boundaries for a decode unit: roughly one
// entry per ChunkSize of decompressed output, cut at recorded non-final
// Dynamic/Stored block starts (which the per-entry stop condition can
// recognise).
func (c *gzipCodec) splitPoints(res *deflate.ChunkResult) []splitPoint {
	total := res.TotalOut()
	target := uint64(c.cfg.ChunkSize)
	var out []splitPoint
	if total > 2*target {
		nextCut := target
		for _, bs := range res.BlockStarts {
			if bs.DecompOffset == 0 || bs.Final || bs.Type == deflate.BlockFixed {
				continue
			}
			if bs.DecompOffset >= nextCut && total-bs.DecompOffset > target/2 {
				out = append(out, splitPoint{endBit: bs.Bit, endDecomp: bs.DecompOffset})
				nextCut = bs.DecompOffset + target
			}
		}
	}
	out = append(out, splitPoint{endBit: res.EndBit, endDecomp: total})
	return out
}

// windowForLocked computes the stored window for an index entry of the
// unit currently being confirmed. unitWindow is the frontier window at
// the unit start. Caller holds c.mu.
func (c *gzipCodec) windowForLocked(m spanMeta, res *deflate.ChunkResult, unitWindow []byte) []byte {
	if m.atMemberStart {
		return nil
	}
	if m.startDecomp == c.frontierDecomp {
		w := make([]byte, len(unitWindow))
		copy(w, unitWindow)
		return w
	}
	w, err := res.WindowAt(m.startDecomp-c.frontierDecomp, unitWindow)
	if err != nil {
		return nil
	}
	return w
}

// recordMemberMarksLocked distributes the footer events of a freshly
// confirmed decode unit over its entries [unitStart, len(metas)). A
// member ending at decompressed offset X belongs to the entry whose
// span (start, start+size] contains X; the zero-length edge case (a
// member boundary exactly at the unit start) attaches to the first
// entry. Caller holds c.mu; the frontier has not advanced yet.
func (c *gzipCodec) recordMemberMarksLocked(unitStart int, res *deflate.ChunkResult) {
	e := unitStart
	for i := range res.Members {
		absEnd := c.frontierDecomp + res.Members[i].DecompOffset
		for e < len(c.metas)-1 && absEnd > c.metas[e].startDecomp+c.metas[e].size {
			e++
		}
		crc := res.Members[i].Footer.CRC32
		c.metas[e].members = append(c.metas[e].members, memberMark{absEnd: absEnd, crc: crc})
		// Mirror the mark into the index so an export→import round trip
		// restores it (and with it, full member verification).
		c.index.AddMemberEnd(c.metas[e].startBit,
			gzindex.MemberEnd{RelEnd: absEnd - c.metas[e].startDecomp, CRC32: crc})
	}
}

// --- consumption-order CRC chain -----------------------------------------

// crcBound marks a member end within a span: the offset relative to the
// span start and the expected footer CRC32.
type crcBound struct {
	relEnd uint64
	crc    uint32
}

// crcPart carries the checksum of a member-delimited range of a span.
type crcPart struct {
	len       uint64
	crc       uint32
	expect    uint32 // footer CRC32 of the member ending after this part
	hasExpect bool
}

// SpanAccessed is the engine's consumption callback: it counts distinct
// span consumption and accumulates member CRCs while consumption stays
// in table order, comparing them against the gzip footers (§6 future
// work, implemented). Out-of-order access disables verification.
func (c *gzipCodec) SpanAccessed(i int, data []byte) {
	c.crcMu.Lock()
	defer c.crcMu.Unlock()
	if !c.consumed[i] {
		c.consumed[i] = true
		c.cnt.consumed.Add(1)
	}
	if !c.cfg.VerifyChecksums || c.crcBroken {
		return
	}
	if i < c.crcNext {
		return // already accounted (repeated access to a cached span)
	}
	if i != c.crcNext {
		c.crcBroken = true
		return
	}
	c.mu.Lock()
	m := c.metas[i]
	c.mu.Unlock()
	var bounds []crcBound
	for _, mm := range m.members {
		bounds = append(bounds, crcBound{relEnd: mm.absEnd - m.startDecomp, crc: mm.crc})
	}
	for _, p := range crcParts(bounds, uint64(len(data)), [][]byte{data}) {
		c.crcAcc = crc32x.Combine(c.crcAcc, p.crc, int64(p.len))
		if p.hasExpect {
			if c.crcAcc != p.expect {
				c.crcBroken = true
				c.cnt.crcFailures.Add(1)
				return
			}
			c.crcAcc = 0
		}
	}
	c.crcNext = i + 1
}

// crcParts computes member-delimited CRCs of the span bytes.
func crcParts(bounds []crcBound, total uint64, segs [][]byte) []crcPart {
	var parts []crcPart
	pos := uint64(0)
	segIdx, segOff := 0, 0
	advance := func(n uint64) uint32 {
		crc := uint32(0)
		for n > 0 && segIdx < len(segs) {
			seg := segs[segIdx][segOff:]
			take := uint64(len(seg))
			if take > n {
				take = n
			}
			crc = crc32x.Combine(crc, crc32x.Checksum(seg[:take]), int64(take))
			segOff += int(take)
			n -= take
			if segOff == len(segs[segIdx]) {
				segIdx++
				segOff = 0
			}
		}
		return crc
	}
	for _, b := range bounds {
		n := b.relEnd - pos
		parts = append(parts, crcPart{len: n, crc: advance(n), expect: b.crc, hasExpect: true})
		pos = b.relEnd
	}
	if rest := total - pos; rest > 0 || len(parts) == 0 {
		parts = append(parts, crcPart{len: rest, crc: advance(rest)})
	}
	return parts
}

// crcStatus reports (verifiedSoFar, failures).
func (c *gzipCodec) crcStatus() (bool, uint64) {
	c.crcMu.Lock()
	defer c.crcMu.Unlock()
	return !c.crcBroken, c.cnt.crcFailures.Load()
}

// flattenRange copies bytes [relStart, relEnd) of the segment list into
// one contiguous slice. A single segment covering the range exactly is
// returned without copying.
func flattenRange(segs [][]byte, relStart, relEnd uint64) []byte {
	if relEnd <= relStart {
		return nil
	}
	pos := uint64(0)
	for _, seg := range segs {
		segEnd := pos + uint64(len(seg))
		if pos == relStart && segEnd == relEnd {
			return seg
		}
		if segEnd > relStart {
			break
		}
		pos = segEnd
	}
	out := make([]byte, 0, relEnd-relStart)
	pos = 0
	for _, seg := range segs {
		segEnd := pos + uint64(len(seg))
		if segEnd > relStart && pos < relEnd {
			lo := uint64(0)
			if relStart > pos {
				lo = relStart - pos
			}
			hi := uint64(len(seg))
			if relEnd < segEnd {
				hi = relEnd - pos
			}
			out = append(out, seg[lo:hi]...)
		}
		pos = segEnd
		if pos >= relEnd {
			break
		}
	}
	return out
}
