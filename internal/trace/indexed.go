package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// segBufPool recycles the raw byte buffers segments are read into, and
// slabPool the slabs uncached segments decode into. Both hold pointers, so
// a Put allocates nothing. All segments of one file are near
// DefaultSegmentBytes, so both pools converge on uniformly sized buffers;
// a segment larger than a pooled buffer grows it.
var (
	segBufPool = sync.Pool{
		New: func() any {
			b := make([]byte, 0, DefaultSegmentBytes+DefaultSegmentBytes/4)
			return &b
		},
	}
	slabPool = sync.Pool{
		New: func() any {
			s := make([]Access, 0, slabCap)
			return &s
		},
	}
)

// slabCap is the most records a DefaultSegmentBytes segment can hold: it
// closes within one record (at most 2*MaxVarintLen64 bytes) past the
// target, and every record takes at least two bytes.
const slabCap = (DefaultSegmentBytes + 2*binary.MaxVarintLen64) / 2

// getPooled takes a buffer from pool, resized to n elements.
func getPooled[T any](pool *sync.Pool, n int) *[]T {
	p := pool.Get().(*[]T)
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

// readSegment pulls one segment's record bytes through the shared ReaderAt
// and verifies them against the index entry. The returned buffer comes
// from segBufPool; give it back with segBufPool.Put.
func readSegment(r io.ReaderAt, seg Segment) (*[]byte, error) {
	bp := getPooled[byte](&segBufPool, int(seg.Len))
	buf := *bp
	n, err := r.ReadAt(buf, seg.Off)
	if err != nil && !(errors.Is(err, io.EOF) && int64(n) == seg.Len) {
		segBufPool.Put(bp)
		return nil, fmt.Errorf("trace: reading segment at %d: %w", seg.Off, coalesceEOF(err))
	}
	if err := verifySegment(buf, seg); err != nil {
		segBufPool.Put(bp)
		return nil, err
	}
	return bp, nil
}

// decodeSegmentSlab reads one segment, checks it against its index entry,
// and decodes it into out, which holds exactly seg.Count accesses.
func decodeSegmentSlab(r io.ReaderAt, seg Segment, nodes int, out []Access) error {
	bp, err := readSegment(r, seg)
	if err != nil {
		return err
	}
	defer segBufPool.Put(bp)
	return decodeRecords(*bp, seg, nodes, out)
}

// decodeFolded decodes one segment through a pooled slab and folds it
// with a fresh folder, so the segment's tape rebuilds it without any
// other segment (DESIGN.md §7). A segment the folder refuses (a header
// without a node count) keeps every access.
func decodeFolded(r io.ReaderAt, seg Segment, nodes int) (*Folded, error) {
	slab := getPooled[Access](&slabPool, int(seg.Count))
	defer slabPool.Put(slab)
	if err := decodeSegmentSlab(r, seg, nodes, *slab); err != nil {
		return nil, err
	}
	if f, err := Fold(*slab, nodes); err == nil {
		return f, nil
	}
	return keepAll(*slab), nil
}

// segEntry is one decoded segment queued for in-order delivery: either a
// pooled slab of accesses (the exact stream, or an uncached segment) or a
// pinned, folded cache entry (the kept face), never both.
type segEntry struct {
	slab *[]Access      // the segment's accesses
	pin  *PinnedSegment // the cached segment, on the kept face
	err  error
}

// discard recycles the pooled slab or releases the cache pin. A pinned
// segment is shared and immutable, so it never enters the pool.
func (e *segEntry) discard() {
	if e.slab != nil {
		slabPool.Put(e.slab)
	}
	if e.pin != nil {
		e.pin.Release()
	}
	*e = segEntry{}
}

// segPipe is the parallel decode pipeline behind IndexedFileSource's
// sequential face: workers claim segments in file order, decode them
// concurrently through the shared io.ReaderAt, and publish the results
// into a reorder buffer the consumer drains strictly in segment order. A
// slot semaphore bounds decoded-but-unconsumed segments, so a slow
// consumer applies backpressure instead of the pipeline buffering the
// whole file.
type segPipe struct {
	r     io.ReaderAt
	idx   *Index
	cache *SegmentCache // nil = decode into pooled slabs
	id    FileID        // cache identity, set when cache != nil
	kept  bool          // deliver the cached segments pinned, for the kept face
	mu    sync.Mutex
	cond  *sync.Cond
	ready map[int]segEntry
	next  int // next segment the consumer needs
	claim int // next segment a worker will take (guarded by mu)
	stop  bool
	stopC chan struct{}
	slots chan struct{}
	wg    sync.WaitGroup
}

func newSegPipe(r io.ReaderAt, idx *Index, workers int, cache *SegmentCache, id FileID, kept bool) *segPipe {
	if workers > len(idx.Segments) {
		workers = len(idx.Segments)
	}
	if workers < 1 {
		workers = 1
	}
	p := &segPipe{
		r:     r,
		idx:   idx,
		cache: cache,
		id:    id,
		kept:  kept,
		ready: make(map[int]segEntry),
		stopC: make(chan struct{}),
		slots: make(chan struct{}, workers+2),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *segPipe) worker() {
	defer p.wg.Done()
	for {
		// Hold a slot before claiming, so every claimed segment is
		// guaranteed to publish: the in-order consumer always finds its
		// next segment either ready or on a slotted worker.
		select {
		case p.slots <- struct{}{}:
		case <-p.stopC:
			return
		}
		p.mu.Lock()
		if p.stop || p.claim >= len(p.idx.Segments) {
			p.mu.Unlock()
			<-p.slots
			return
		}
		i := p.claim
		p.claim++
		p.mu.Unlock()

		e := p.decode(i)
		err := e.err
		p.mu.Lock()
		if p.stop {
			p.mu.Unlock()
			e.discard()
			<-p.slots
			return
		}
		p.ready[i] = e
		if err != nil {
			// Decode failures surface to the consumer in order; segments
			// past the bad one would be wasted work.
			p.claim = len(p.idx.Segments)
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// decode produces segment i's entry. With a cache attached it acquires
// the folded segment: the kept face delivers it pinned until the consumer
// releases it, and the exact face expands its tape into a pooled slab
// here, so the workers expand segments in parallel. Without a cache it
// decodes into a pooled slab.
func (p *segPipe) decode(i int) segEntry {
	seg, nodes := p.idx.Segments[i], p.idx.Header.Nodes
	if p.cache != nil {
		pin, err := p.cache.Acquire(p.id, i, func() (*Folded, error) {
			return decodeFolded(p.r, seg, nodes)
		})
		if err != nil {
			return segEntry{err: err}
		}
		if p.kept {
			return segEntry{pin: pin}
		}
		f := pin.Folded()
		slab := getPooled[Access](&slabPool, f.Len())
		f.expandInto(*slab)
		pin.Release()
		return segEntry{slab: slab}
	}
	slab := getPooled[Access](&slabPool, int(seg.Count))
	if err := decodeSegmentSlab(p.r, seg, nodes, *slab); err != nil {
		slabPool.Put(slab)
		return segEntry{err: err}
	}
	return segEntry{slab: slab}
}

// nextSegment blocks until the next in-order segment is decoded and
// returns its entry (a pooled slab or a pinned folded segment).
// It returns io.EOF after the final segment and the decode error of the
// first bad segment.
func (p *segPipe) nextSegment() (segEntry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next >= len(p.idx.Segments) {
		return segEntry{}, io.EOF
	}
	for {
		if p.stop {
			return segEntry{}, io.EOF
		}
		if e, ok := p.ready[p.next]; ok {
			delete(p.ready, p.next)
			p.next++
			<-p.slots
			return e, e.err
		}
		p.cond.Wait()
	}
}

// halt stops the workers, waits them out, and recycles every buffer still
// queued. After halt the pipe is inert.
func (p *segPipe) halt() {
	p.mu.Lock()
	if !p.stop {
		p.stop = true
		close(p.stopC)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	for i, e := range p.ready {
		e.discard()
		delete(p.ready, i)
	}
}

// IndexedFileSource is a Source decoding an MTR3 trace through its segment
// index: up to Decoders goroutines decode segments concurrently via a
// shared io.ReaderAt, each into one slab, and the Source face reassembles
// them in segment order, so consumers see exactly the sequential access
// stream. It is the one reader every run uses.
//
// With a SegmentCache attached, each segment is decoded once and cached
// folded (Folded). The source then has two faces. The exact face, the
// default, expands each segment's tape back into the access stream, in
// the decode workers. The kept face (WithKept) unpacks each pinned
// segment's kept accesses with their fold counts straight into the
// caller's batch, for the engines' unprobed batch kernels to credit. An
// uncached source decodes every access and has one face: WithKept
// changes nothing there, every access being kept.
//
// The decode pipeline starts lazily at the first read, and Reset returns
// the source to the unstarted state. Sharded runs read it through the
// same sequential face: DemuxParallel's producer routes the reassembled
// stream while the workers decode ahead.
//
// Like every Source, an IndexedFileSource is driven by one consumer
// goroutine at a time.
type IndexedFileSource struct {
	r        io.ReaderAt
	closer   io.Closer
	idx      *Index
	decoders int

	cache  *SegmentCache // nil = caching off
	fileID FileID
	hasID  bool // file identity known (opened from a real path)
	kept   bool // the kept face (WithKept)

	pipe *segPipe
	cur  segEntry // the segment being read
	// face reads cur: slice over a slab, or keptR over a pinned segment.
	// It is nil before the first segment.
	face  BatchReader
	slice SliceSource
	keptR keptSource
	err   error
}

// NewIndexedSource builds an IndexedFileSource over any io.ReaderAt (which
// must be safe for concurrent ReadAt, as *os.File and *bytes.Reader are).
// size is the total trace length in bytes. decoders bounds the concurrent
// segment decoders; 0 means GOMAXPROCS. MTR1/MTR2 input fails with an
// error wrapping ErrNoIndex that names the converter.
func NewIndexedSource(r io.ReaderAt, size int64, decoders int) (*IndexedFileSource, error) {
	idx, err := ReadIndex(r, size)
	if err != nil {
		return nil, err
	}
	if decoders <= 0 {
		decoders = runtime.GOMAXPROCS(0)
	}
	return &IndexedFileSource{r: r, idx: idx, decoders: decoders}, nil
}

// OpenFileParallelCache opens the MTR3 trace at path as an
// IndexedFileSource with up to decoders (0 = GOMAXPROCS) concurrent
// segment decoders and the shared decoded-segment cache attached (nil =
// caching off). It is how the CLIs, sweeps, sim.Run and cohd open every
// trace file. MTR1/MTR2 files fail with an error wrapping ErrNoIndex that
// names the converter, and a v3 file with a damaged index fails with
// ErrTruncated or ErrCorrupt. The caller must Close the source.
func OpenFileParallelCache(path string, decoders int, cache *SegmentCache) (*IndexedFileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src, err := NewIndexedSource(f, fi.Size(), decoders)
	if err != nil {
		f.Close()
		return nil, err
	}
	src.closer = f
	src.fileID, src.hasID = fileIDFor(path, fi)
	h := sha256.New()
	src.idx.WriteIdentity(h)
	copy(src.fileID.Index[:], h.Sum(nil))
	return src.WithCache(cache), nil
}

// WithCache attaches the shared decoded-segment cache: subsequent segment
// decodes consult it before touching the raw bytes. A nil cache, an
// already-started pipeline, or a source without file identity
// (NewIndexedSource over a bare ReaderAt) leaves the source uncached.
// Returns s for chaining.
func (s *IndexedFileSource) WithCache(c *SegmentCache) *IndexedFileSource {
	if c != nil && s.hasID && s.pipe == nil {
		s.cache = c
	}
	return s
}

// WithKept switches s to its kept face: each cached segment's kept
// accesses, with the silent repeats folded into them (Access.Fold). The
// folder restarts at every segment, so a node's first access in each
// segment is kept. Called after the first read it changes nothing.
// Returns s for chaining.
func (s *IndexedFileSource) WithKept() *IndexedFileSource {
	if s.pipe == nil {
		s.kept = true
	}
	return s
}

// Header returns the trace geometry header.
func (s *IndexedFileSource) Header() Header { return s.idx.Header }

// Index returns the decoded segment index. The caller must not mutate it.
func (s *IndexedFileSource) Index() *Index { return s.idx }

// Decoders returns the configured decoder-goroutine bound.
func (s *IndexedFileSource) Decoders() int { return s.decoders }

// advance gives back the drained segment and installs the next one,
// starting the pipeline on first use. Segments are never empty (the index
// rejects zero-count entries), and a folder keeps each node's first
// access, so every installed segment has an access on either face.
func (s *IndexedFileSource) advance() error {
	s.release()
	if s.err != nil {
		return s.err
	}
	if s.pipe == nil {
		s.pipe = newSegPipe(s.r, s.idx, s.decoders, s.cache, s.fileID, s.kept)
	}
	e, err := s.pipe.nextSegment()
	if err != nil {
		s.err = err
		e.discard()
		return err
	}
	s.cur = e
	if e.slab != nil {
		s.slice = SliceSource{accesses: *e.slab}
		s.face = &s.slice
	} else {
		s.keptR.rewind(e.pin.Folded())
		s.face = &s.keptR
	}
	return nil
}

// release detaches the face and gives back the current segment.
func (s *IndexedFileSource) release() {
	s.face = nil
	s.cur.discard()
}

// Next implements Source.
func (s *IndexedFileSource) Next() (Access, error) {
	var buf [1]Access
	_, err := s.NextBatch(buf[:])
	return buf[0], err
}

// NextBatch implements BatchReader: it fills buf from the current
// segment's face.
func (s *IndexedFileSource) NextBatch(buf []Access) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	for {
		if s.face != nil {
			if n, _ := s.face.NextBatch(buf); n > 0 {
				return n, nil
			}
		}
		if err := s.advance(); err != nil {
			return 0, err
		}
	}
}

// drain quiesces the pipeline and gives back every in-flight slab.
func (s *IndexedFileSource) drain() {
	if s.pipe != nil {
		s.pipe.halt()
		s.pipe = nil
	}
	s.release()
	s.err = nil
}

// Reset implements Source, returning to the first access with the
// pipeline unstarted (it relaunches lazily at the next read).
func (s *IndexedFileSource) Reset() error {
	s.drain()
	return nil
}

// Close implements Source, closing the underlying file when the source
// was opened by OpenFileParallelCache.
func (s *IndexedFileSource) Close() error {
	s.drain()
	s.err = io.EOF
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}
