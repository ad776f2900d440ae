package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"migratory/internal/memory"
)

// TestAccessLayout pins the shape of Access that every batch loop copies
// per record: 16 bytes, no pointers (a pooled batch is never scanned by
// the garbage collector), and at most four fields. The last is not a size
// rule: Go's SSA backend decomposes only structs of at most four fields
// into registers, so a fifth field, even one that fits in the padding,
// makes every `a := batch[i]` in the engines a memory copy. A variant
// carrying the fold counts as two uint16 fields measured about 10 % more
// CPU on the full evaluation from that alone.
func TestAccessLayout(t *testing.T) {
	typ := reflect.TypeOf(Access{})
	if size := unsafe.Sizeof(Access{}); size != 16 {
		t.Fatalf("Access is %d bytes, want 16", size)
	}
	if n := typ.NumField(); n > 4 {
		t.Fatalf("Access has %d fields, want at most 4 (SSA keeps only structs of <= 4 fields in registers)", n)
	}
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Fatalf("Access.%s has kind %s, want a plain unsigned integer", typ.Field(i).Name, k)
		}
	}
}

// randomTrace returns n accesses over nodes processors, with runs of
// repeats (same node and granule) mixed with contended and private
// addresses, so every fold rule is exercised.
func randomTrace(rng *rand.Rand, n, nodes int) []Access {
	accs := make([]Access, 0, n)
	for len(accs) < n {
		a := Access{
			Node: memory.NodeID(rng.Intn(nodes)),
			Kind: Kind(rng.Intn(2)),
			Addr: memory.Addr(rng.Intn(1 << 11)),
		}
		for r := rng.Intn(6); r >= 0 && len(accs) < n; r-- {
			accs = append(accs, a)
			a.Kind = Kind(rng.Intn(2))
			a.Addr = a.Addr&^15 | memory.Addr(rng.Intn(16))
		}
	}
	return accs
}

func TestFoldExpandRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 7, DefaultBatchSize + 3, 20000} {
		accs := randomTrace(rng, n, 5)
		f, err := Fold(accs, 5)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != len(accs) {
			t.Fatalf("n=%d: Len %d", n, f.Len())
		}
		var credited int
		for _, k := range f.Kept() {
			credited += 1 + int(k.FoldedReads()+k.FoldedWrites())
		}
		if credited != len(accs) {
			t.Fatalf("n=%d: kept accesses and folds cover %d accesses, want %d", n, credited, len(accs))
		}
		if n > 100 && len(f.Kept()) >= n {
			t.Fatalf("n=%d: nothing folded", n)
		}
		if got := f.Expand(); !reflect.DeepEqual(got, accs) && len(accs) > 0 {
			t.Fatalf("n=%d: Expand differs from the trace", n)
		}
		// The streamed expansion, read in odd-sized pieces, after a Reset.
		src := f.Open()
		if _, err := ReadAll(src); err != nil {
			t.Fatal(err)
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		var got []Access
		buf := make([]Access, 97)
		for {
			m, err := FillBatch(src, buf)
			got = append(got, buf[:m]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(accs) || (len(accs) > 0 && !reflect.DeepEqual(got, accs)) {
			t.Fatalf("n=%d: streamed expansion differs from the trace", n)
		}
	}
}

// TestFoldRule pins each condition of the fold rule on a hand-built trace.
func TestFoldRule(t *testing.T) {
	accs := []Access{
		{Node: 0, Kind: Read, Addr: 0x100},  // kept: first access
		{Node: 0, Kind: Read, Addr: 0x104},  // folded read: same granule
		{Node: 0, Kind: Write, Addr: 0x108}, // kept: not yet written
		{Node: 0, Kind: Write, Addr: 0x10c}, // folded write
		{Node: 1, Kind: Read, Addr: 0x1f0},  // kept: node 1, same region
		{Node: 0, Kind: Read, Addr: 0x100},  // kept: node 1 touched the region
		{Node: 0, Kind: Write, Addr: 0x100}, // kept: written state reset
		{Node: 0, Kind: Read, Addr: 0x110},  // kept: another granule
		{Node: 0, Kind: Read, Addr: 0x100},  // kept: n's previous access was elsewhere
		{Node: 0, Kind: Write, Addr: 0x100}, // kept: the run restarted, so not yet written
		{Node: 2, Kind: Read, Addr: 0x200},  // kept: another region
		{Node: 0, Kind: Write, Addr: 0x101}, // folded write: node 2 stayed outside
	}
	f, err := Fold(accs, 3)
	if err != nil {
		t.Fatal(err)
	}
	var folds []uint32
	for _, k := range f.Kept() {
		folds = append(folds, k.Fold)
	}
	want := []uint32{1, 1 << 16, 0, 0, 0, 0, 0, 1 << 16, 0}
	if !reflect.DeepEqual(folds, want) {
		t.Fatalf("fold counts %#x, want %#x", folds, want)
	}
	if got := f.Expand(); !reflect.DeepEqual(got, accs) {
		t.Fatalf("Expand = %v\nwant %v", got, accs)
	}
}

// TestFoldCap checks that each count stops at 65535 and the next repeat
// is kept, with the run's later repeats folding into it.
func TestFoldCap(t *testing.T) {
	accs := []Access{{Node: 1, Kind: Write, Addr: 64}}
	for i := 0; i < foldMax+10; i++ {
		accs = append(accs, Access{Node: 1, Kind: Read, Addr: 64}, Access{Node: 1, Kind: Write, Addr: 65})
	}
	f, err := Fold(accs, 2)
	if err != nil {
		t.Fatal(err)
	}
	kept := f.Kept()
	if len(kept) != 2 {
		t.Fatalf("%d kept accesses, want 2: the first and the read past the cap", len(kept))
	}
	if r, w := kept[0].FoldedReads(), kept[0].FoldedWrites(); r != foldMax || w != foldMax {
		t.Fatalf("first kept access folds %d reads, %d writes; want %d each", r, w, foldMax)
	}
	// The 65536th read is kept; the run goes on, so the 10 writes and 9
	// reads after it fold into it.
	if kept[1].Kind != Read || kept[1].FoldedReads() != 9 || kept[1].FoldedWrites() != 10 {
		t.Fatalf("second kept access %v, want a read folding 9 reads and 10 writes", kept[1])
	}
	if got := f.Expand(); !reflect.DeepEqual(got, accs) {
		t.Fatal("Expand differs from the trace")
	}
}

// TestFoldRefuses checks that an access the tape cannot carry refuses the
// whole trace with ErrUnfoldable, and keeps refusing.
func TestFoldRefuses(t *testing.T) {
	for _, bad := range []Access{
		{Node: 4, Kind: Read, Addr: 0},
		{Node: 0, Kind: Kind(2), Addr: 0},
		{Node: 0, Kind: Read, Addr: 0, Fold: 1},
	} {
		f := NewFolder(4, 0)
		if err := f.Add([]Access{{Node: 0, Kind: Read}, bad}); !errors.Is(err, ErrUnfoldable) {
			t.Fatalf("%v: Add = %v, want ErrUnfoldable", bad, err)
		}
		if err := f.Add([]Access{{Node: 0, Kind: Read}}); !errors.Is(err, ErrUnfoldable) {
			t.Fatalf("%v: Add after a refusal = %v", bad, err)
		}
		if _, err := f.Folded(); !errors.Is(err, ErrUnfoldable) {
			t.Fatalf("%v: Folded = %v", bad, err)
		}
	}
}

// TestWritersRefuseFolded checks that no encoder can drop fold counts.
func TestWritersRefuseFolded(t *testing.T) {
	folded := Access{Node: 1, Kind: Read, Addr: 32, Fold: 3}
	w := NewWriter(io.Discard, Header{Nodes: 4})
	if err := w.Write(Access{Node: 1, Kind: Read, Addr: 16}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(folded); !errors.Is(err, ErrFolded) {
		t.Fatalf("Writer.Write = %v, want ErrFolded", err)
	}
	if err := WriteTo(&bytes.Buffer{}, []Access{folded}); !errors.Is(err, ErrFolded) {
		t.Fatalf("WriteTo = %v, want ErrFolded", err)
	}
}

// TestClassifyKeptAccesses checks that the block histories built from a
// folded trace's kept accesses, whose folded writes they credit, equal the
// full trace's field for field, and so do the off-line classifications, at
// every block size the fold is exact for.
func TestClassifyKeptAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	histories := func(src Reader, geom memory.Geometry) map[memory.BlockID]blockHistory {
		t.Helper()
		blocks, err := buildHistories(src, geom)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[memory.BlockID]blockHistory, blocks.Len())
		blocks.ForEach(func(b memory.BlockID, h *blockHistory) { out[b] = *h })
		return out
	}
	for _, nodes := range []int{2, 5} {
		accs := randomTrace(rng, 20000, nodes)
		f, err := Fold(accs, nodes)
		if err != nil {
			t.Fatal(err)
		}
		for bs := FoldGranule; bs <= FoldRegion; bs *= 2 {
			geom := memory.MustGeometry(bs, 4096)
			if got, want := histories(f.OpenKept(), geom), histories(NewSliceSource(accs), geom); !reflect.DeepEqual(got, want) {
				t.Errorf("%d nodes, %d-byte blocks: the kept accesses build other block histories than the full trace", nodes, bs)
			}
			got, err := ClassifyBlocksSource(f.OpenKept(), geom)
			if err != nil {
				t.Fatal(err)
			}
			if want := ClassifyBlocks(accs, geom); !reflect.DeepEqual(got, want) {
				t.Errorf("%d nodes, %d-byte blocks: the kept accesses classify differently from the full trace", nodes, bs)
			}
		}
	}
}
