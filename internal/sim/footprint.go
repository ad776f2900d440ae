package sim

import (
	"context"
	"errors"
	"io"
	"math/bits"

	"migratory/internal/memory"
	"migratory/internal/trace"
)

// Footprint records which distinct blocks each node of a trace touches, at
// the 16-byte granule of the paper's smallest block, in one dense bitmap
// per node. It is what decides whether a finite cache can ever evict: both
// engines insert a line only into the cache of the node whose access
// missed (DESIGN.md §7), so a cache whose every set can hold all of its
// node's blocks that map there never chooses a victim, and its run is the
// infinite-cache run access for access.
//
// The bitmaps cover block IDs below footprintLimit (a 64 MB address space
// at 16-byte blocks, 512 KB of bitmap per node at most). A trace reaching
// past that is recorded as wild, and no cache is claimed eviction-free for
// it.
type Footprint struct {
	nodes [][]uint64 // nodes[n] has bit b set when node n touches 16-byte block b
	wild  bool       // some access lay at or beyond footprintLimit
}

const (
	// footprintGranule is the block size the bitmaps record.
	footprintGranule = 16
	footprintLimit   = memory.BlockID(1) << 22
)

var footprintGeom = memory.MustGeometry(footprintGranule, PageSize)

// NewFootprint streams src once, batch by batch, and returns the per-node
// footprint of the accesses it yields. It never holds the trace: memory is
// the bitmaps alone. ctx is checked between batches. The caller closes src.
func NewFootprint(ctx context.Context, src trace.Reader) (*Footprint, error) {
	f := &Footprint{}
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, err := trace.FillBatch(src, buf)
		f.add(buf[:n])
		if errors.Is(err, io.EOF) {
			return f, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// add records one batch of accesses.
func (f *Footprint) add(batch []trace.Access) {
	for _, a := range batch {
		b := footprintGeom.Block(a.Addr)
		if b >= footprintLimit {
			f.wild = true
			continue
		}
		for int(a.Node) >= len(f.nodes) {
			f.nodes = append(f.nodes, nil)
		}
		bm := f.nodes[a.Node]
		if w := int(b >> 6); w >= len(bm) {
			bm = append(bm, make([]uint64, w+1-len(bm))...)
			f.nodes[a.Node] = bm
		}
		bm[b>>6] |= 1 << (b & 63)
	}
}

// EvictionFree reports whether a cache of cacheBytes bytes, blockSize-byte
// blocks and assoc ways per set can never evict under this trace: no node
// touches more than assoc distinct blocks that map to any one set. An
// infinite cache (cacheBytes 0) is trivially eviction-free. Geometries the
// footprint cannot answer for (blocks below its 16-byte granule, a set
// count that is not a power of two, a wild trace) report false, which only
// means the cache is simulated as configured.
func (f *Footprint) EvictionFree(cacheBytes, blockSize, assoc int) bool {
	if cacheBytes == 0 {
		return true
	}
	if f.wild || blockSize < footprintGranule || assoc <= 0 {
		return false
	}
	sets := cacheBytes / blockSize / assoc
	if sets <= 0 || sets&(sets-1) != 0 || sets*blockSize*assoc != cacheBytes {
		return false
	}
	// A blockSize-byte block is the 16-byte block ID shifted right, and
	// its set is the low bits of its own ID, as in cache.Cache.
	shift := uint(bits.TrailingZeros(uint(blockSize / footprintGranule)))
	mask := uint64(sets - 1)
	counts := make([]int, sets)
	for _, bm := range f.nodes {
		clear(counts)
		prev := ^uint64(0)
		for wi, w := range bm {
			for w != 0 {
				blk := (uint64(wi)<<6 | uint64(bits.TrailingZeros64(w))) >> shift
				w &= w - 1
				// Bits come in increasing order, so a coarse block's
				// 16-byte granules are consecutive: count it once.
				if blk == prev {
					continue
				}
				prev = blk
				set := blk & mask
				counts[set]++
				if counts[set] > assoc {
					return false
				}
			}
		}
	}
	return true
}
