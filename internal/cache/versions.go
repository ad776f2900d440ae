package cache

import (
	"fmt"

	"migratory/internal/memory"
)

// Versions is the coherence checker's model of data values: the latest
// version of every block, bumped on each write, and the version each
// node's copy was filled with. It lives beside the caches rather than in
// their lines, so checking coherence costs a line no bytes; engines
// allocate it only when asked to check, and every method of a nil
// *Versions is an inlined no-op.
type Versions struct {
	latest memory.BlockMap[uint64]
	copies []memory.BlockMap[uint64] // indexed by node
}

// NewVersions returns an empty model for nodes caches.
func NewVersions(nodes int) *Versions {
	return &Versions{copies: make([]memory.BlockMap[uint64], nodes)}
}

// Fill records that node n's copy of b now holds the latest version: a
// fill from memory or another cache, or an update broadcast.
func (v *Versions) Fill(n memory.NodeID, b memory.BlockID) {
	if v != nil {
		v.fill(n, b)
	}
}

func (v *Versions) fill(n memory.NodeID, b memory.BlockID) {
	c, _ := v.copies[n].GetOrCreate(b)
	*c = versionOf(&v.latest, b)
}

// Write records a write to b by node n: a new latest version, which n's
// copy holds.
func (v *Versions) Write(n memory.NodeID, b memory.BlockID) {
	if v != nil {
		v.write(n, b)
	}
}

func (v *Versions) write(n memory.NodeID, b memory.BlockID) {
	l, _ := v.latest.GetOrCreate(b)
	*l++
	c, _ := v.copies[n].GetOrCreate(b)
	*c = *l
}

// CheckRead returns an error if node n's copy of b does not hold the
// latest version.
func (v *Versions) CheckRead(n memory.NodeID, b memory.BlockID) error {
	if v == nil {
		return nil
	}
	return v.checkRead(n, b)
}

func (v *Versions) checkRead(n memory.NodeID, b memory.BlockID) error {
	have, want := versionOf(&v.copies[n], b), versionOf(&v.latest, b)
	if have != want {
		return fmt.Errorf("stale read of block %d: version %d, latest %d", b, have, want)
	}
	return nil
}

// versionOf returns m's value for b, or 0 (the initial contents of memory).
func versionOf(m *memory.BlockMap[uint64], b memory.BlockID) uint64 {
	if p := m.Get(b); p != nil {
		return *p
	}
	return 0
}
