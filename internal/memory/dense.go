package memory

// BlockMap is a map from BlockID to V optimized for the dense, low-numbered
// block identifiers the trace generators produce. Values for blocks below
// the dense limit live in fixed-size chunks allocated on demand — one
// pointer dereference and two index operations per access, no hashing, no
// per-value allocation — while arbitrarily large identifiers (external
// traces, adversarial fuzz inputs) fall back to an ordinary Go map.
//
// Pointers returned by Get and GetOrCreate remain valid for the lifetime of
// the map: chunks are never moved or freed, so protocol engines can mutate
// entries in place even while later accesses grow the map.
//
// The zero value is an empty map ready for use.
type BlockMap[V any] struct {
	chunks []*blockChunk[V]
	sparse map[BlockID]*V
	n      int
}

const (
	// blockChunkBits sets the allocation granule: 1024 entries (33 KB of
	// infinite-cache lines). Every infinite-cache node and directory pays
	// for whole chunks, and the generated workloads touch a few thousand
	// blocks each, so a smaller granule tracks their footprint closely.
	blockChunkBits = 10
	blockChunkSize = 1 << blockChunkBits
	blockChunkMask = blockChunkSize - 1
	// blockDenseLimit bounds the chunk directory (64M block IDs ≈ a 1 GB
	// address space at 16-byte blocks); IDs at or beyond it use the sparse
	// map so one wild identifier cannot allocate an enormous table.
	blockDenseLimit = BlockID(1) << 26
)

type blockChunk[V any] struct {
	present [blockChunkSize]bool
	vals    [blockChunkSize]V
}

// Len returns the number of stored values.
func (m *BlockMap[V]) Len() int { return m.n }

// Get returns the value stored for b, or nil if absent.
func (m *BlockMap[V]) Get(b BlockID) *V {
	if b < blockDenseLimit {
		ci := int(b >> blockChunkBits)
		if ci >= len(m.chunks) {
			return nil
		}
		ch := m.chunks[ci]
		if ch == nil || !ch.present[b&blockChunkMask] {
			return nil
		}
		return &ch.vals[b&blockChunkMask]
	}
	return m.sparse[b]
}

// GetOrCreate returns the value for b, creating a zero value if absent; the
// second result reports whether the value was created by this call.
func (m *BlockMap[V]) GetOrCreate(b BlockID) (*V, bool) {
	if b < blockDenseLimit {
		ci := int(b >> blockChunkBits)
		for len(m.chunks) <= ci {
			m.chunks = append(m.chunks, nil)
		}
		ch := m.chunks[ci]
		if ch == nil {
			ch = new(blockChunk[V])
			m.chunks[ci] = ch
		}
		i := int(b & blockChunkMask)
		if ch.present[i] {
			return &ch.vals[i], false
		}
		ch.present[i] = true
		m.n++
		return &ch.vals[i], true
	}
	if v, ok := m.sparse[b]; ok {
		return v, false
	}
	if m.sparse == nil {
		m.sparse = make(map[BlockID]*V)
	}
	v := new(V)
	m.sparse[b] = v
	m.n++
	return v, true
}

// Delete removes the value for b, reporting whether it was present.
func (m *BlockMap[V]) Delete(b BlockID) bool {
	if b < blockDenseLimit {
		ci := int(b >> blockChunkBits)
		if ci >= len(m.chunks) || m.chunks[ci] == nil {
			return false
		}
		ch := m.chunks[ci]
		i := int(b & blockChunkMask)
		if !ch.present[i] {
			return false
		}
		ch.present[i] = false
		var zero V
		ch.vals[i] = zero
		m.n--
		return true
	}
	if _, ok := m.sparse[b]; !ok {
		return false
	}
	delete(m.sparse, b)
	m.n--
	return true
}

// ForEach calls fn for every stored (block, value) pair. Dense blocks are
// visited in ascending order; sparse ones in map order after them. fn may
// mutate the value through the pointer but must not Delete or GetOrCreate.
func (m *BlockMap[V]) ForEach(fn func(BlockID, *V)) {
	for ci, ch := range m.chunks {
		if ch == nil {
			continue
		}
		base := BlockID(ci) << blockChunkBits
		for i := range ch.present {
			if ch.present[i] {
				fn(base+BlockID(i), &ch.vals[i])
			}
		}
	}
	for b, v := range m.sparse {
		fn(b, v)
	}
}
