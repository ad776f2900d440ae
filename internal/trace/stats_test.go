package trace

import (
	"reflect"
	"strings"
	"testing"

	"migratory/internal/memory"
)

var g16 = memory.MustGeometry(16, 4096)

// block returns the base address of block n under g16.
func block(n int) memory.Addr { return memory.Addr(n * 16) }

func TestAnalyzeTotals(t *testing.T) {
	accs := []Access{
		{Node: 0, Kind: Read, Addr: block(0)},
		{Node: 0, Kind: Write, Addr: block(0)},
		{Node: 1, Kind: Read, Addr: block(1)},
		{Node: 2, Kind: Read, Addr: block(300)}, // second page
	}
	st := Analyze(accs, g16)
	if st.Accesses != 4 || st.Reads != 3 || st.Writes != 1 {
		t.Fatalf("totals: %+v", st)
	}
	if st.Blocks != 3 {
		t.Fatalf("Blocks = %d", st.Blocks)
	}
	if st.Pages != 2 || st.FootprintKB != 8 {
		t.Fatalf("Pages = %d FootprintKB = %d", st.Pages, st.FootprintKB)
	}
	if st.Nodes != 3 {
		t.Fatalf("Nodes = %d", st.Nodes)
	}
	if len(st.PerNode) != 3 || st.PerNode[0] != 2 || st.PerNode[1] != 1 || st.PerNode[2] != 1 {
		t.Fatalf("PerNode = %v", st.PerNode)
	}
}

func TestAnalyzePatternPrivate(t *testing.T) {
	accs := []Access{
		{Node: 5, Kind: Read, Addr: block(0)},
		{Node: 5, Kind: Write, Addr: block(0)},
		{Node: 5, Kind: Read, Addr: block(0)},
	}
	st := Analyze(accs, g16)
	if st.PrivateBlocks != 1 || st.MigratoryBlocks != 0 || st.ReadSharedBlocks != 0 || st.OtherBlocks != 0 {
		t.Fatalf("census: %+v", st)
	}
}

func TestAnalyzePatternReadShared(t *testing.T) {
	// Node 0 initializes, then everyone reads.
	accs := []Access{
		{Node: 0, Kind: Write, Addr: block(0)},
		{Node: 1, Kind: Read, Addr: block(0)},
		{Node: 2, Kind: Read, Addr: block(0)},
		{Node: 0, Kind: Read, Addr: block(0)},
		{Node: 3, Kind: Read, Addr: block(0)},
	}
	st := Analyze(accs, g16)
	if st.ReadSharedBlocks != 1 {
		t.Fatalf("census: %+v", st)
	}
}

func TestAnalyzePatternMigratory(t *testing.T) {
	// Classic migratory: each node reads then writes, in turn.
	var accs []Access
	for round := 0; round < 3; round++ {
		for n := memory.NodeID(0); n < 4; n++ {
			accs = append(accs,
				Access{Node: n, Kind: Read, Addr: block(7)},
				Access{Node: n, Kind: Write, Addr: block(7)},
			)
		}
	}
	st := Analyze(accs, g16)
	if st.MigratoryBlocks != 1 {
		t.Fatalf("census: %+v", st)
	}
}

func TestAnalyzePatternOther(t *testing.T) {
	// Producer/consumer: node 0 writes, node 1 reads, repeatedly. The
	// handoff from 1 back to 0 is clean (no write in node 1's run), so the
	// block is not migratory.
	var accs []Access
	for i := 0; i < 4; i++ {
		accs = append(accs,
			Access{Node: 0, Kind: Write, Addr: block(2)},
			Access{Node: 1, Kind: Read, Addr: block(2)},
		)
	}
	st := Analyze(accs, g16)
	if st.OtherBlocks != 1 {
		t.Fatalf("census: %+v", st)
	}
}

func TestAnalyzeMigratoryWriteOnlyRuns(t *testing.T) {
	// Write-only runs still count as migratory handoffs.
	accs := []Access{
		{Node: 0, Kind: Write, Addr: block(1)},
		{Node: 1, Kind: Write, Addr: block(1)},
		{Node: 2, Kind: Write, Addr: block(1)},
	}
	st := Analyze(accs, g16)
	if st.MigratoryBlocks != 1 {
		t.Fatalf("census: %+v", st)
	}
}

func TestBlockPatternString(t *testing.T) {
	want := map[BlockPattern]string{
		PatternPrivate:    "private",
		PatternReadShared: "read-shared",
		PatternMigratory:  "migratory",
		PatternOther:      "other",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%v.String() = %q; want %q", uint8(p), p.String(), s)
		}
	}
	if got := BlockPattern(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown pattern string: %q", got)
	}
}

func TestStatsString(t *testing.T) {
	st := Analyze([]Access{{Node: 0, Kind: Read, Addr: 0}}, g16)
	s := st.String()
	for _, want := range []string{"accesses: 1", "1 reads", "private"} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String missing %q:\n%s", want, s)
		}
	}
}

func TestTopPages(t *testing.T) {
	var accs []Access
	// Page 0: 3 accesses, page 1: 5, page 2: 1.
	for i := 0; i < 3; i++ {
		accs = append(accs, Access{Node: 0, Kind: Read, Addr: 0})
	}
	for i := 0; i < 5; i++ {
		accs = append(accs, Access{Node: 0, Kind: Read, Addr: 4096})
	}
	accs = append(accs, Access{Node: 0, Kind: Read, Addr: 8192})

	top := TopPages(accs, g16, 2)
	if len(top) != 2 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Page != 1 || top[0].Count != 5 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Page != 0 || top[1].Count != 3 {
		t.Fatalf("top[1] = %+v", top[1])
	}
	// n larger than distinct pages returns everything.
	if got := TopPages(accs, g16, 10); len(got) != 3 {
		t.Fatalf("TopPages(10) len = %d", len(got))
	}
}

func TestTopPagesTieBreak(t *testing.T) {
	accs := []Access{
		{Node: 0, Kind: Read, Addr: 8192},
		{Node: 0, Kind: Read, Addr: 0},
	}
	top := TopPages(accs, g16, 2)
	if top[0].Page != 0 || top[1].Page != 2 {
		t.Fatalf("tie break by page id failed: %+v", top)
	}
}

// TestBlockHistoryLayout keeps the per-block census record free of
// pointers, so its BlockMap chunks are never scanned by the garbage
// collector.
func TestBlockHistoryLayout(t *testing.T) {
	if memory.HasPointers(reflect.TypeOf(blockHistory{})) {
		t.Error("blockHistory contains pointers")
	}
}

// TestClassifyBlocksSparseIDs runs the same migratory pattern on a dense
// and on a huge block ID (the census map's sparse fallback): both must
// classify alike and be counted once each.
func TestClassifyBlocksSparseIDs(t *testing.T) {
	huge := memory.Addr(1) << 40
	var accs []Access
	for _, n := range []memory.NodeID{0, 1, 2} {
		for _, addr := range []memory.Addr{block(3), huge} {
			accs = append(accs, Access{Node: n, Kind: Read, Addr: addr}, Access{Node: n, Kind: Write, Addr: addr})
		}
	}
	got := ClassifyBlocks(accs, g16)
	if len(got) != 2 || got[g16.Block(block(3))] != PatternMigratory || got[g16.Block(huge)] != PatternMigratory {
		t.Fatalf("ClassifyBlocks = %v, want both blocks migratory", got)
	}
	if st := Analyze(accs, g16); st.Blocks != 2 || st.MigratoryBlocks != 2 {
		t.Fatalf("Analyze: %d blocks, %d migratory; want 2, 2", st.Blocks, st.MigratoryBlocks)
	}
}
