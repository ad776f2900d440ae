package placement

import (
	"math/rand"
	"testing"

	"migratory/internal/memory"
	"migratory/internal/trace"
)

var geom = memory.MustGeometry(16, 4096)

func pageAddr(p int) memory.Addr { return memory.Addr(p * 4096) }

func TestRoundRobin(t *testing.T) {
	r := NewRoundRobin(16)
	if r.Name() != "round-robin" {
		t.Fatalf("Name = %q", r.Name())
	}
	for p := memory.PageID(0); p < 64; p++ {
		if got := r.Home(p); got != memory.NodeID(p%16) {
			t.Fatalf("Home(%d) = %d", p, got)
		}
	}
}

func TestRoundRobinPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRoundRobin(0)
}

func TestFirstTouch(t *testing.T) {
	accs := []trace.Access{
		{Node: 3, Kind: trace.Read, Addr: pageAddr(0)},
		{Node: 5, Kind: trace.Write, Addr: pageAddr(0) + 64}, // same page, later
		{Node: 7, Kind: trace.Read, Addr: pageAddr(1)},
	}
	p := FirstTouch(accs, geom, 16)
	if p.Name() != "first-touch" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.Pages() != 2 {
		t.Fatalf("Pages = %d", p.Pages())
	}
	if got := p.Home(0); got != 3 {
		t.Fatalf("Home(0) = %d; want first toucher 3", got)
	}
	if got := p.Home(1); got != 7 {
		t.Fatalf("Home(1) = %d", got)
	}
	// Unmapped page falls back to round robin.
	if got := p.Home(99); got != memory.NodeID(99%16) {
		t.Fatalf("fallback Home(99) = %d", got)
	}
}

func TestUsageBased(t *testing.T) {
	var accs []trace.Access
	// Page 0: node 2 accesses 5 times, node 9 accesses 3 times.
	for i := 0; i < 5; i++ {
		accs = append(accs, trace.Access{Node: 2, Kind: trace.Read, Addr: pageAddr(0)})
	}
	for i := 0; i < 3; i++ {
		accs = append(accs, trace.Access{Node: 9, Kind: trace.Write, Addr: pageAddr(0) + 32})
	}
	// Page 1: tie between nodes 4 and 1 -> lower ID wins.
	accs = append(accs,
		trace.Access{Node: 4, Kind: trace.Read, Addr: pageAddr(1)},
		trace.Access{Node: 1, Kind: trace.Read, Addr: pageAddr(1)},
	)
	p := UsageBased(accs, geom, 16)
	if p.Name() != "usage-based" {
		t.Fatalf("Name = %q", p.Name())
	}
	if got := p.Home(0); got != 2 {
		t.Fatalf("Home(0) = %d; want 2", got)
	}
	if got := p.Home(1); got != 1 {
		t.Fatalf("Home(1) = %d; want tie broken to 1", got)
	}
}

func TestUsageBasedRespectsNodeBound(t *testing.T) {
	// Accesses from node 12 with nodes=4: counts beyond the bound are
	// ignored, so the page falls to node 0 (no in-range counts).
	accs := []trace.Access{{Node: 12, Kind: trace.Read, Addr: pageAddr(0)}}
	p := UsageBased(accs, geom, 4)
	if got := p.Home(0); got != 0 {
		t.Fatalf("Home(0) = %d; want 0", got)
	}
}

func TestLocalFraction(t *testing.T) {
	accs := []trace.Access{
		{Node: 0, Kind: trace.Read, Addr: pageAddr(0)}, // home 0 under RR: local
		{Node: 1, Kind: trace.Read, Addr: pageAddr(1)}, // local
		{Node: 2, Kind: trace.Read, Addr: pageAddr(1)}, // remote
		{Node: 3, Kind: trace.Read, Addr: pageAddr(0)}, // remote
	}
	got := LocalFraction(accs, geom, NewRoundRobin(16))
	if got != 0.5 {
		t.Fatalf("LocalFraction = %v", got)
	}
	if LocalFraction(nil, geom, NewRoundRobin(16)) != 0 {
		t.Fatal("empty trace should give 0")
	}
}

func TestUsageBasedBeatsRoundRobin(t *testing.T) {
	// A trace where each node works mostly on its own pages: usage-based
	// placement should make far more accesses local than round robin.
	var accs []trace.Access
	for n := memory.NodeID(0); n < 16; n++ {
		// Node n hammers page 100+n (which round robin homes elsewhere
		// for most n).
		for i := 0; i < 50; i++ {
			accs = append(accs, trace.Access{Node: n, Kind: trace.Read, Addr: pageAddr(100 + int(n))})
		}
		// And occasionally touches a shared page 0.
		accs = append(accs, trace.Access{Node: n, Kind: trace.Read, Addr: pageAddr(0)})
	}
	ub := UsageBased(accs, geom, 16)
	rr := NewRoundRobin(16)
	fu := LocalFraction(accs, geom, ub)
	fr := LocalFraction(accs, geom, rr)
	if fu < 0.9 {
		t.Fatalf("usage-based local fraction = %v; want > 0.9", fu)
	}
	if fu <= fr {
		t.Fatalf("usage-based (%v) not better than round robin (%v)", fu, fr)
	}
}

// TestStaticDenseMatchesMap checks the flat Home table against the map
// path it caches: inside the dense range, just beyond it, at the dense
// limit, and for huge page IDs both mapped and unmapped.
func TestStaticDenseMatchesMap(t *testing.T) {
	huge := memory.PageID(1) << 40
	table := map[memory.PageID]memory.NodeID{
		0: 5, 3: 1, 7: 9, 200: 2, // dense prefix [0, 201)
		denseLimit + 3: 4, // mapped, but past the dense bound
		huge:           11,
	}
	s := newStatic("test", table, 16)
	if len(s.dense) != 201 {
		t.Fatalf("dense table covers %d pages, want 201", len(s.dense))
	}
	var pages []memory.PageID
	for p := memory.PageID(0); p < 400; p++ {
		pages = append(pages, p)
	}
	pages = append(pages, denseLimit-1, denseLimit, denseLimit+3, huge-1, huge, huge+1, ^memory.PageID(0))
	for _, p := range pages {
		if got, want := s.Home(p), s.lookup(p); got != want {
			t.Fatalf("Home(%d) = %d, map path %d", p, got, want)
		}
	}
	for p, n := range table {
		if got := s.Home(p); got != n {
			t.Fatalf("Home(%d) = %d, mapped to %d", p, got, n)
		}
	}
	if got := s.Home(201); got != memory.NodeID(201%16) {
		t.Fatalf("unmapped page 201 homed at %d, want round-robin %d", got, 201%16)
	}

	// A table whose only page is past the bound builds no dense table.
	if s := newStatic("test", map[memory.PageID]memory.NodeID{huge: 3}, 16); len(s.dense) != 0 || s.Home(huge) != 3 {
		t.Fatalf("huge-only table: dense len %d, Home = %d", len(s.dense), s.Home(huge))
	}
}

// TestProfilesMatchMapReference checks the batched, page-indexed profiling
// passes against straightforward per-access map implementations, on pages
// in the dense table, at its limit, and far past it, with some accesses by
// nodes beyond the placement's node count.
func TestProfilesMatchMapReference(t *testing.T) {
	const nodes = 8
	pages := []memory.PageID{0, 1, 7, 300, tallyDenseLimit - 1, tallyDenseLimit, 1 << 40}
	rng := rand.New(rand.NewSource(1))
	var accs []trace.Access
	for i := 0; i < 3*trace.DefaultBatchSize; i++ {
		p := pages[rng.Intn(len(pages))]
		accs = append(accs, trace.Access{
			Node: memory.NodeID(rng.Intn(nodes + 2)), Kind: trace.Read,
			Addr: geom.PageAddr(p) + memory.Addr(rng.Intn(4096)),
		})
	}
	// A page touched only by out-of-range nodes is still mapped (to 0).
	accs = append(accs, trace.Access{Node: nodes + 1, Kind: trace.Write, Addr: geom.PageAddr(42)})

	first := make(map[memory.PageID]memory.NodeID)
	counts := make(map[memory.PageID]*[memory.MaxNodes]uint32)
	for _, a := range accs {
		p := geom.Page(a.Addr)
		if _, ok := first[p]; !ok {
			first[p] = a.Node
			counts[p] = new([memory.MaxNodes]uint32)
		}
		counts[p][a.Node]++
	}
	usage := make(map[memory.PageID]memory.NodeID)
	for p, c := range counts {
		best := memory.NodeID(0)
		for n := 1; n < nodes; n++ {
			if c[n] > c[best] {
				best = memory.NodeID(n)
			}
		}
		usage[p] = best
	}

	for _, c := range []struct {
		got  *Static
		want map[memory.PageID]memory.NodeID
	}{
		{FirstTouch(accs, geom, nodes), first},
		{UsageBased(accs, geom, nodes), usage},
	} {
		if c.got.Pages() != len(c.want) {
			t.Errorf("%s: %d pages mapped, want %d", c.got.Name(), c.got.Pages(), len(c.want))
		}
		for p, n := range c.want {
			if got := c.got.Home(p); got != n {
				t.Errorf("%s: Home(%d) = %d, want %d", c.got.Name(), p, got, n)
			}
		}
	}
}
