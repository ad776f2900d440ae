package memory

import (
	"reflect"
	"testing"
)

func TestBlockMapBasics(t *testing.T) {
	var m BlockMap[int]
	if m.Len() != 0 || m.Get(0) != nil {
		t.Fatal("zero value not empty")
	}
	v, created := m.GetOrCreate(5)
	if !created || *v != 0 {
		t.Fatalf("create: %v %d", created, *v)
	}
	*v = 42
	if got := m.Get(5); got == nil || *got != 42 {
		t.Fatalf("get: %v", got)
	}
	if _, created := m.GetOrCreate(5); created {
		t.Fatal("re-created existing key")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	if !m.Delete(5) || m.Delete(5) {
		t.Fatal("delete")
	}
	if m.Len() != 0 || m.Get(5) != nil {
		t.Fatal("delete left residue")
	}
	// A re-created slot must come back zeroed.
	if v, _ := m.GetOrCreate(5); *v != 0 {
		t.Fatalf("recreated value = %d, want 0", *v)
	}
}

func TestBlockMapSparseFallback(t *testing.T) {
	var m BlockMap[string]
	big := BlockID(1) << 40 // far past the dense limit
	v, created := m.GetOrCreate(big)
	if !created {
		t.Fatal("sparse create")
	}
	*v = "hi"
	if got := m.Get(big); got == nil || *got != "hi" {
		t.Fatalf("sparse get: %v", got)
	}
	if got := m.Get(big + 1); got != nil {
		t.Fatal("phantom sparse key")
	}
	if !m.Delete(big) || m.Delete(big) || m.Len() != 0 {
		t.Fatal("sparse delete")
	}
	if m.Delete(BlockID(1) << 41) {
		t.Fatal("delete of absent sparse key")
	}
}

func TestBlockMapPointerStability(t *testing.T) {
	var m BlockMap[uint64]
	first, _ := m.GetOrCreate(1)
	*first = 7
	// Force many chunks into existence; the original pointer must survive.
	for b := BlockID(0); b < 1<<16; b += blockChunkSize {
		m.GetOrCreate(b)
	}
	if *first != 7 {
		t.Fatalf("pointer invalidated: %d", *first)
	}
	*first = 8
	if got := m.Get(1); *got != 8 {
		t.Fatalf("write through stale pointer lost: %d", *got)
	}
}

func TestBlockMapForEach(t *testing.T) {
	var m BlockMap[int]
	keys := []BlockID{3, 1, blockChunkSize + 2, BlockID(1) << 30}
	for i, b := range keys {
		v, _ := m.GetOrCreate(b)
		*v = i + 1
	}
	seen := map[BlockID]int{}
	var denseOrder []BlockID
	m.ForEach(func(b BlockID, v *int) {
		seen[b] = *v
		if b < blockDenseLimit {
			denseOrder = append(denseOrder, b)
		}
	})
	if len(seen) != len(keys) {
		t.Fatalf("visited %d keys, want %d", len(seen), len(keys))
	}
	for i, b := range keys {
		if seen[b] != i+1 {
			t.Errorf("key %d: got %d want %d", b, seen[b], i+1)
		}
	}
	for i := 1; i < len(denseOrder); i++ {
		if denseOrder[i-1] >= denseOrder[i] {
			t.Fatalf("dense iteration not ascending: %v", denseOrder)
		}
	}
}

func TestNodeSetForEach(t *testing.T) {
	s := NodeSet(0).Add(0).Add(3).Add(63)
	var got []NodeID
	s.ForEach(func(n NodeID) { got = append(got, n) })
	want := s.Nodes()
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, Nodes says %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v != Nodes %v", got, want)
		}
	}
	NodeSet(0).ForEach(func(NodeID) { t.Fatal("empty set visited") })
}

func TestHasPointers(t *testing.T) {
	type flat struct {
		a uint64
		b [4]uint8
		c struct{ d bool }
	}
	type withString struct {
		a int
		s string
	}
	cases := []struct {
		v    any
		want bool
	}{
		{flat{}, false},
		{[0]*int{}, false},
		{withString{}, true},
		{[2]*int{}, true},
		{struct{ m map[int]int }{}, true},
		{struct{ f func() }{}, true},
		{struct{ s []byte }{}, true},
	}
	for _, c := range cases {
		if got := HasPointers(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("HasPointers(%T) = %v, want %v", c.v, got, c.want)
		}
	}
}
