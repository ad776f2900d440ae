package migratory

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/trace"
)

// decodeAccesses turns fuzzer bytes into a trace over a small contended
// address space: 2 bytes per access (node+kind, block).
func decodeAccesses(data []byte, nodes, blocks int) []trace.Access {
	var accs []trace.Access
	for i := 0; i+1 < len(data); i += 2 {
		accs = append(accs, trace.Access{
			Node: memory.NodeID(int(data[i]>>1) % nodes),
			Kind: trace.Kind(data[i] & 1),
			Addr: memory.Addr(int(data[i+1]) % blocks * 16),
		})
	}
	return accs
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x00, 0x03, 0x00, 0x04, 0x00}) // migratory-ish
	f.Add([]byte{0x01, 0x00, 0x02, 0x00, 0x04, 0x00, 0x06, 0x00})
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = byte(i*7 + 3)
	}
	f.Add(seed)
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x00, 0x00}) // write miss, dirty write hit, read hit
}

// FuzzDirectoryProtocols hammers every directory policy with arbitrary
// traces, checking the structural invariants, that no processor ever
// observes a stale value, and that the unchecked batch kernel counts
// exactly what the checked per-access path does.
func FuzzDirectoryProtocols(f *testing.F) {
	fuzzSeeds(f)
	geom := memory.MustGeometry(16, 4096)
	policies := append(core.Policies(), core.Stenstrom)
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, 5, 12)
		for _, pol := range policies {
			checkDirectoryKernels(t, pol.Name, directory.Config{
				Nodes: 5, Geometry: geom, CacheBytes: 128, Assoc: 2,
				Policy: pol, Placement: placement.NewRoundRobin(5),
			}, accs, 1)
		}
	})
}

// FuzzSnoopProtocols is the bus-side twin, covering all six protocols and
// a hysteresis variant.
func FuzzSnoopProtocols(f *testing.F) {
	fuzzSeeds(f)
	geom := memory.MustGeometry(16, 4096)
	type variant struct {
		p snoop.Protocol
		h int
	}
	variants := []variant{
		{snoop.MESI, 1}, {snoop.Adaptive, 1}, {snoop.Adaptive, 2},
		{snoop.AdaptiveMigrateFirst, 1}, {snoop.Symmetry, 1}, {snoop.UpdateOnce, 1}, {snoop.Berkeley, 1},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, 5, 12)
		for _, v := range variants {
			checkSnoopKernels(t, fmt.Sprintf("%s/h%d", v.p, v.h), snoop.Config{
				Nodes: 5, Geometry: geom, CacheBytes: 128, Assoc: 2,
				Protocol: v.p, Hysteresis: v.h,
			}, accs, 1)
		}
	})
}

// FuzzEvictionFreeBound checks the footprint bound the sweeps use to run a
// finite cache as the infinite one. Over arbitrary traces and caches of
// one to four sets, whenever sim.Footprint calls a cache eviction-free the
// finite run must evict nothing (no cache evictions, write-backs or clean
// drops) and its RunResult must marshal to the infinite run's bytes, under
// every directory policy and bus protocol.
func FuzzEvictionFreeBound(f *testing.F) {
	fuzzSeeds(f)
	// P0 writes block 0, reads block 1, reads block 0: two blocks in one
	// set, so a one-line cache must evict, write back and miss again.
	f.Add([]byte{0x01, 0x00, 0x00, 0x01, 0x00, 0x00})
	const nodes = 4
	geom := memory.MustGeometry(16, 4096)
	policies := append(core.Policies(), core.Stenstrom)
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, nodes, 12)
		fp, err := sim.NewFootprint(context.Background(), trace.NewSliceSource(accs))
		if err != nil {
			t.Fatal(err)
		}
		result := func(cfg sim.RunConfig) []byte {
			cfg.Nodes, cfg.OpenSource = nodes, func() (trace.Source, error) { return trace.NewSliceSource(accs), nil }
			res, err := sim.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, _ := json.Marshal(res)
			return blob
		}
		infinite := make(map[string][]byte) // by policy or protocol name
		infiniteResult := func(cfg sim.RunConfig) []byte {
			name := cfg.Policy + cfg.Protocol
			if infinite[name] == nil {
				infinite[name] = result(cfg)
			}
			return infinite[name]
		}
		for _, assoc := range []int{1, 2, 4} {
			for _, sets := range []int{1, 2, 4} {
				cb := sets * assoc * 16
				if !fp.EvictionFree(cb, 16, assoc) {
					continue
				}
				for _, pol := range policies {
					name := fmt.Sprintf("%s/%dx%d", pol.Name, sets, assoc)
					sys, err := directory.New(directory.Config{
						Nodes: nodes, Geometry: geom, CacheBytes: cb, Assoc: assoc,
						Policy: pol, Placement: placement.NewRoundRobin(nodes),
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.RunSource(nil, trace.NewSliceSource(accs)); err != nil {
						t.Fatal(err)
					}
					c := sys.Counters()
					if _, _, ev := sys.CacheStats(); ev+c.WriteBacks+c.CleanDrops != 0 {
						t.Fatalf("%s: %d evictions, %d write-backs, %d clean drops in an eviction-free cache", name, ev, c.WriteBacks, c.CleanDrops)
					}
					cfg := sim.RunConfig{Engine: sim.EngineDirectory, Policy: pol.Name, Placement: sim.PlacementRoundRobin}
					want := infiniteResult(cfg)
					cfg.CacheBytes, cfg.Assoc = cb, assoc
					if got := result(cfg); !bytes.Equal(got, want) {
						t.Fatalf("%s: finite result differs from the infinite one:\n%s\n%s", name, got, want)
					}
				}
				for _, p := range snoop.Protocols() {
					name := fmt.Sprintf("%s/%dx%d", p, sets, assoc)
					sys, err := snoop.New(snoop.Config{Nodes: nodes, Geometry: geom, CacheBytes: cb, Assoc: assoc, Protocol: p})
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.RunSource(nil, trace.NewSliceSource(accs)); err != nil {
						t.Fatal(err)
					}
					if _, _, ev := sys.CacheStats(); ev+sys.Counts().WriteBack != 0 {
						t.Fatalf("%s: %d evictions, %d write-backs in an eviction-free cache", name, ev, sys.Counts().WriteBack)
					}
					cfg := sim.RunConfig{Engine: sim.EngineBus, Protocol: p.String()}
					want := infiniteResult(cfg)
					cfg.CacheBytes, cfg.Assoc = cb, assoc
					if got := result(cfg); !bytes.Equal(got, want) {
						t.Fatalf("%s: finite result differs from the infinite one:\n%s\n%s", name, got, want)
					}
				}
			}
		}
	})
}

// checkDirectoryKernels is the reference comparison for the directory
// engine's batch kernel. It runs accs one Access at a time under
// CheckCoherence (which keeps runBatch off its fast paths) and checks the
// structural invariants. It then runs them through RunSource with no
// checker and no probe, and, when shards > 1, through a set-sharded run,
// and demands the same counters, messages per operation and cache
// statistics from each.
func checkDirectoryKernels(t *testing.T, name string, cfg directory.Config, accs []trace.Access, shards int) {
	t.Helper()
	checked := cfg
	checked.CheckCoherence = true
	ref, err := directory.New(checked)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range accs {
		if err := ref.Access(a); err != nil {
			t.Fatalf("%s: access %d (%v): %v", name, i, a, err)
		}
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	type results interface {
		Counters() directory.Counters
		Messages() cost.Msgs
		MessagesByOp(cost.Op) cost.Msgs
		CacheStats() (hits, misses, evictions uint64)
		RunSource(context.Context, trace.Source) error
	}
	fast, err := directory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]results{"batch": fast}
	if shards > 1 {
		sh, err := directory.NewSharded(cfg, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("x%d", shards)] = sh
	}
	for mode, sys := range runs {
		if err := sys.RunSource(nil, trace.NewSliceSource(accs)); err != nil {
			t.Fatalf("%s %s: %v", name, mode, err)
		}
		if got, want := sys.Counters(), ref.Counters(); got != want {
			t.Fatalf("%s %s: counters %+v, checked per-access run %+v", name, mode, got, want)
		}
		if got, want := sys.Messages(), ref.Messages(); got != want {
			t.Fatalf("%s %s: messages %+v, checked per-access run %+v", name, mode, got, want)
		}
		for op := cost.ReadMiss; op <= cost.WriteBack; op++ {
			if got, want := sys.MessagesByOp(op), ref.MessagesByOp(op); got != want {
				t.Fatalf("%s %s: %s messages %+v, checked per-access run %+v", name, mode, op, got, want)
			}
		}
		gh, gm, ge := sys.CacheStats()
		wh, wm, we := ref.CacheStats()
		if gh != wh || gm != wm || ge != we {
			t.Fatalf("%s %s: cache stats %d/%d/%d, checked per-access run %d/%d/%d", name, mode, gh, gm, ge, wh, wm, we)
		}
	}
}

// checkSnoopKernels is checkDirectoryKernels for the bus engine: bus
// transaction counts, hits, migrations and accesses must match the checked
// per-access run.
func checkSnoopKernels(t *testing.T, name string, cfg snoop.Config, accs []trace.Access, shards int) {
	t.Helper()
	checked := cfg
	checked.CheckCoherence = true
	ref, err := snoop.New(checked)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range accs {
		if err := ref.Access(a); err != nil {
			t.Fatalf("%s: access %d (%v): %v", name, i, a, err)
		}
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	type results interface {
		Counts() snoop.Counts
		Hits() (read, write uint64)
		Migrations() uint64
		Accesses() uint64
		RunSource(context.Context, trace.Source) error
	}
	fast, err := snoop.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]results{"batch": fast}
	if shards > 1 {
		sh, err := snoop.NewSharded(cfg, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("x%d", shards)] = sh
	}
	for mode, sys := range runs {
		if err := sys.RunSource(nil, trace.NewSliceSource(accs)); err != nil {
			t.Fatalf("%s %s: %v", name, mode, err)
		}
		if got, want := sys.Counts(), ref.Counts(); got != want {
			t.Fatalf("%s %s: counts %+v, checked per-access run %+v", name, mode, got, want)
		}
		gr, gw := sys.Hits()
		wr, ww := ref.Hits()
		if gr != wr || gw != ww {
			t.Fatalf("%s %s: hits %d/%d, checked per-access run %d/%d", name, mode, gr, gw, wr, ww)
		}
		if got, want := sys.Migrations(), ref.Migrations(); got != want {
			t.Fatalf("%s %s: migrations %d, checked per-access run %d", name, mode, got, want)
		}
		if got, want := sys.Accesses(), ref.Accesses(); got != want {
			t.Fatalf("%s %s: accesses %d, checked per-access run %d", name, mode, got, want)
		}
	}
}

// FuzzMTRRoundTrip encodes arbitrary traces in the .mtr format and decodes
// them back through the indexed reader every run uses: the writer's bytes
// must equal refMTR3's, the round trip must be exact, and every truncated
// prefix must error (never succeed, never panic). An input of odd length
// draws the segment target from its last byte (0 = the default, else 1 to
// 128 bytes, a few records each), so segment closes and CRCs are hit many
// times per input.
func FuzzMTRRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	// wide: 3- and 4-byte records; narrow: 2-byte records (blocks 0 to 3
	// in turn), so segments of an even target end exactly on it.
	wide, narrow := make([]byte, 129), make([]byte, 129)
	for i := 0; i < 128; i += 2 {
		wide[i], wide[i+1] = byte(i*13+5), byte(i*29+7)
		narrow[i], narrow[i+1] = byte(i*5), byte(i/2%4)
	}
	for _, target := range []byte{1, 5, 64, 128} {
		wide[128] = target
		f.Add(bytes.Clone(wide))
	}
	for _, target := range []byte{2, 4, 64} {
		narrow[128] = target
		f.Add(bytes.Clone(narrow))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, 64, 250)
		segBytes := 0
		if len(data)%2 == 1 {
			segBytes = int(data[len(data)-1]) % 129
		}
		hdr := trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 64}
		var buf bytes.Buffer
		w := trace.NewWriterOptions(&buf, hdr, trace.WriterOptions{SegmentBytes: segBytes})
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if ref := refMTR3(hdr, accs, segBytes); !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("segment target %d: writer bytes differ from the reference encoder's\n got %x\nwant %x", segBytes, buf.Bytes(), ref)
		}
		full := buf.Bytes()

		src, err := trace.NewIndexedSource(bytes.NewReader(full), int64(len(full)), 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(src)
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(accs) {
			t.Fatalf("round trip: %d != %d", len(got), len(accs))
		}
		for i := range accs {
			if got[i] != accs[i] {
				t.Fatalf("record %d: %v != %v", i, got[i], accs[i])
			}
		}

		// A handful of truncation points per input keeps the fuzz loop fast
		// while still covering header, record, and trailer cuts.
		for _, cut := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 1} {
			if cut < 0 || cut >= len(full) {
				continue
			}
			tsrc, err := trace.NewIndexedSource(bytes.NewReader(full[:cut]), int64(cut), 2)
			if err == nil {
				_, err = trace.ReadAll(tsrc)
				tsrc.Close()
			}
			if err == nil {
				t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(full))
			}
		}
	})
}

// refMTR3 encodes accs as README's .mtr v3 table lays the format out,
// independently of trace.Writer: header varints, per-record head and
// zigzag address-delta varints, segments closed at the first record
// boundary at or past target bytes (0 = trace.DefaultSegmentBytes), each
// with the CRC-32 of its bytes, then the trailer, the index and the footer.
func refMTR3(hdr trace.Header, accs []trace.Access, target int) []byte {
	if target <= 0 {
		target = trace.DefaultSegmentBytes
	}
	out := []byte("MTR3")
	out = binary.AppendUvarint(out, uint64(hdr.BlockSize))
	out = binary.AppendUvarint(out, uint64(hdr.PageSize))
	out = binary.AppendUvarint(out, uint64(hdr.Nodes))
	var index [][5]uint64 // offset, length, count, start address, CRC
	var prev memory.Addr
	for i := 0; i < len(accs); {
		off := len(out)
		e := [5]uint64{uint64(off), 0, 0, uint64(prev), 0}
		for i < len(accs) && len(out)-off < target {
			a := accs[i]
			out = binary.AppendUvarint(out, (uint64(a.Node)<<1|uint64(a.Kind))+1)
			d := int64(a.Addr - prev)
			out = binary.AppendUvarint(out, uint64(d<<1)^uint64(d>>63))
			prev = a.Addr
			e[2]++
			i++
		}
		e[1] = uint64(len(out) - off)
		e[4] = uint64(crc32.ChecksumIEEE(out[off:]))
		index = append(index, e)
	}
	out = append(out, 0)
	out = binary.AppendUvarint(out, uint64(len(accs)))
	indexOff := len(out)
	out = binary.AppendUvarint(out, uint64(len(index)))
	for _, e := range index {
		for _, v := range e {
			out = binary.AppendUvarint(out, v)
		}
	}
	crc := crc32.ChecksumIEEE(out[indexOff:])
	out = binary.LittleEndian.AppendUint64(out, uint64(indexOff))
	out = binary.LittleEndian.AppendUint32(out, crc)
	return append(out, "MTRX"...)
}

// FuzzMTRDecode feeds arbitrary bytes to the sequential .mtr decoder, the
// reader of the MTR1/MTR2 input that tracegen converts (so it reads
// outside data): any input may be rejected, none may panic or be silently
// misread as a valid trace longer than the data could hold.
func FuzzMTRDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MTR2"))
	f.Add([]byte("MTR2\x00\x00\x00"))
	f.Add([]byte("MTR2\x10\x80\x20\x10\x03\x02\x00\x01"))
	f.Add([]byte("MTR1\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := trace.NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		accs, err := trace.ReadAll(dec)
		if err != nil {
			return
		}
		// A record costs at least 2 bytes in MTR2; claiming more accesses
		// than the payload could encode means the decoder misread.
		if len(accs) > len(data)/2 {
			t.Fatalf("decoded %d accesses from %d bytes", len(accs), len(data))
		}
	})
}

// FuzzShardDemux checks the property the sharded engines rest on: the
// demux stage partitions an arbitrary trace by the routing function and,
// within every shard, preserves the accesses' original relative order —
// equivalently, each shard receives exactly the subsequence of the trace
// that routes to it, with Steps carrying the global indices. The trace is
// fed both from a slice and from a v3 image with tiny segments, whose
// indexed source decodes ahead of the demux on two workers.
func FuzzShardDemux(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, 16, 250)
		var buf bytes.Buffer
		w := trace.NewWriterOptions(&buf, trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 16},
			trace.WriterOptions{SegmentBytes: 64})
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		sources := map[string]func() (trace.Source, error){
			"slice": func() (trace.Source, error) { return trace.NewSliceSource(accs), nil },
			"indexed": func() (trace.Source, error) {
				return trace.NewIndexedSource(bytes.NewReader(img), int64(len(img)), 2)
			},
		}
		for name, open := range sources {
			for _, shards := range []int{1, 2, 4} {
				route := func(a trace.Access) int { return int(a.Addr/16) % shards }

				// Expected per-shard subsequences, from a sequential pass.
				want := make([][]trace.Access, shards)
				for _, a := range accs {
					s := route(a)
					want[s] = append(want[s], a)
				}

				src, err := open()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := make([][]trace.Access, shards)
				steps := make([][]uint64, shards)
				err = trace.DemuxParallel(nil, src, 0, shards, true, nil, route,
					func(shard int, b trace.ShardBatch) error {
						got[shard] = append(got[shard], b.Accs...)
						steps[shard] = append(steps[shard], b.Steps...)
						return nil
					})
				src.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for s := 0; s < shards; s++ {
					if len(got[s]) != len(want[s]) {
						t.Fatalf("%s x%d shard %d: %d accesses, want %d", name, shards, s, len(got[s]), len(want[s]))
					}
					prev := -1
					for i := range want[s] {
						if got[s][i] != want[s][i] {
							t.Fatalf("%s x%d shard %d: access %d is %v, want %v (order not preserved)",
								name, shards, s, i, got[s][i], want[s][i])
						}
						st := int(steps[s][i])
						if st <= prev || st >= len(accs) || accs[st] != got[s][i] {
							t.Fatalf("%s x%d shard %d: bad global step %d at position %d", name, shards, s, st, i)
						}
						prev = st
					}
				}
			}
		}
	})
}

// FuzzSegmentIndex hammers the v3 segment-index reader and the indexed
// parallel decoder with raw bytes, single-byte corruptions of valid
// images, and truncations: every rejection must surface one of the
// package's typed errors (never a panic, never a silent short read), and
// whenever the indexed path accepts an input, its parallel decode must
// match the sequential decoder on the same bytes record for record.
func FuzzSegmentIndex(f *testing.F) {
	encodeV3 := func(accs []trace.Access, segBytes int) []byte {
		var buf bytes.Buffer
		w := trace.NewWriterOptions(&buf, trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 64},
			trace.WriterOptions{SegmentBytes: segBytes})
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				return nil
			}
		}
		if err := w.Close(); err != nil {
			return nil
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte("MTR3"))
	f.Add([]byte("MTRX"))
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i*13 + 5)
	}
	f.Add(seed)
	f.Add(encodeV3(decodeAccesses(seed, 64, 250), 64))

	typed := func(t *testing.T, what string, err error) {
		if !errors.Is(err, trace.ErrTruncated) && !errors.Is(err, trace.ErrCorrupt) &&
			!errors.Is(err, trace.ErrBadMagic) && !errors.Is(err, trace.ErrNoIndex) {
			t.Fatalf("%s: untyped error: %v", what, err)
		}
	}
	// check decodes b through the indexed path and returns the record
	// count, or -1 when the input was rejected (with a typed error). An
	// accepted input must decode identically through the sequential path.
	check := func(t *testing.T, b []byte) int {
		src, err := trace.NewIndexedSource(bytes.NewReader(b), int64(len(b)), 2)
		var got []trace.Access
		if err == nil {
			got, err = trace.ReadAll(src)
			src.Close()
		}
		if err != nil {
			typed(t, "indexed", err)
			return -1
		}
		dec, err := trace.NewDecoder(bytes.NewReader(b))
		var want []trace.Access
		if err == nil {
			want, err = trace.ReadAll(dec)
		}
		if err != nil {
			t.Fatalf("indexed decode accepted %d bytes the sequential decoder rejects: %v", len(b), err)
		}
		if len(got) != len(want) {
			t.Fatalf("indexed decoded %d records, sequential %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: indexed %v, sequential %v", i, got[i], want[i])
			}
		}
		return len(got)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data) // raw bytes: typed rejection or consistent decode

		accs := decodeAccesses(data, 64, 250)
		img := encodeV3(accs, 96)
		if img == nil {
			t.Fatal("writer rejected a valid trace")
		}
		if n := check(t, img); n != len(accs) {
			t.Fatalf("fresh image decoded %d records, want %d", n, len(accs))
		}
		if len(data) == 0 {
			return
		}

		// One data-directed byte flip anywhere in the image: it must either
		// be caught (typed error) or leave the decode in agreement with the
		// sequential decoder — never a panic, never divergent records.
		pos := (int(data[0])<<8 | int(data[len(data)/2])) % len(img)
		mut := append([]byte(nil), img...)
		mut[pos] ^= data[len(data)-1] | 1
		check(t, mut)

		// Every truncation must be rejected, and rejected with a type.
		for _, cut := range []int{0, 1, len(img) / 3, len(img) - 17, len(img) - 1} {
			if cut < 0 || cut >= len(img) {
				continue
			}
			if n := check(t, img[:cut]); n >= 0 {
				t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(img))
			}
		}
	})
}

// FuzzTraceCodec round-trips arbitrary traces through the legacy MTR1
// format: WriteTo encodes, the sequential decoder reads them back.
func FuzzTraceCodec(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, 64, 250)
		var buf bytes.Buffer
		if err := trace.WriteTo(&buf, accs); err != nil {
			t.Fatal(err)
		}
		dec, err := trace.NewDecoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(dec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(accs) {
			t.Fatalf("round trip: %d != %d", len(got), len(accs))
		}
		for i := range accs {
			if got[i] != accs[i] {
				t.Fatalf("record %d: %v != %v", i, got[i], accs[i])
			}
		}
	})
}

// FuzzSegmentCacheKey rewrites a trace file in place and requires the
// shared segment cache to never serve segments decoded from the previous
// bytes: file identity (size + mtime + inode) must fence every rewrite,
// including ones that keep the encoded size identical.
func FuzzSegmentCacheKey(f *testing.F) {
	fuzzSeeds(f)
	writeV3 := func(t *testing.T, path string, accs []trace.Access) {
		t.Helper()
		var buf bytes.Buffer
		w := trace.NewWriterOptions(&buf, trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 64},
			trace.WriterOptions{SegmentBytes: 64})
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	readThrough := func(t *testing.T, cache *TraceSegmentCache, path string) []trace.Access {
		t.Helper()
		src, err := OpenTraceFile(path, 2, cache)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		got, err := ReadTrace(src)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before := decodeAccesses(data, 64, 250)
		if len(before) == 0 {
			return
		}
		// A same-length mutation keeps the access count (and usually the
		// encoded size) identical — the hardest rewrite to fence.
		after := append([]trace.Access(nil), before...)
		i := int(data[0]) % len(after)
		after[i].Kind ^= 1
		after[i].Node = memory.NodeID((int(after[i].Node) + 1) % 64)

		dir := t.TempDir()
		path := filepath.Join(dir, "t.mtr")
		writeV3(t, path, before)
		cache := NewTraceSegmentCache(64 << 20)
		if got := readThrough(t, cache, path); !reflect.DeepEqual(got, before) {
			t.Fatalf("first replay decoded %d records, want %d", len(got), len(before))
		}

		writeV3(t, path, after)
		// Guarantee an observable mtime change even on filesystems with
		// coarse timestamps and an unchanged encoded size.
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		bumped := fi.ModTime().Add(time.Second)
		if err := os.Chtimes(path, bumped, bumped); err != nil {
			t.Fatal(err)
		}

		if got := readThrough(t, cache, path); !reflect.DeepEqual(got, after) {
			for j := range after {
				if j < len(got) && got[j] != after[j] {
					t.Fatalf("record %d after rewrite: got %v, want %v (stale cache?)", j, got[j], after[j])
				}
			}
			t.Fatalf("rewrite replay decoded %d records, want %d", len(got), len(after))
		}
	})
}

// decodeRuns turns fuzzer bytes into a trace of single-node runs, the
// shape folding acts on: 2 bytes per run. The first byte holds the kind,
// the node (of 4), a run length of 1 to 8, whether the run's kinds
// alternate and whether the run is wide; the second picks an address over
// three 256-byte regions, odd low bits included, so runs share blocks of
// 64 and 256 bytes without sharing a 16-byte granule. A wide run's
// address takes the second byte's quotient by 72 (0 to 3) as its high 32
// bits, so consecutive runs change their high word, and the first two
// wide runs of length 8 grow to longRun accesses, past the fold caps
// (4095 reads, 2047 writes) whichever kinds they hold. long reports
// whether the trace holds such a run.
func decodeRuns(data []byte) (accs []trace.Access, long bool) {
	const longRun = 4200
	longs := 0
	for i := 0; i+1 < len(data); i += 2 {
		a := trace.Access{
			Node: memory.NodeID(data[i] >> 1 & 3),
			Kind: trace.Kind(data[i] & 1),
			Addr: memory.Addr(int(data[i+1]) % 72 * 11),
		}
		n := int(data[i]>>3&7) + 1
		if data[i]&0x80 != 0 {
			a.Addr |= memory.Addr(data[i+1]/72) << 32
			if n == 8 && longs < 2 {
				n = longRun
				longs++
			}
		}
		for r := n; r > 0; r-- {
			accs = append(accs, a)
			if data[i]&0x40 != 0 {
				a.Kind ^= 1
			}
			a.Addr = a.Addr&^15 | memory.Addr(r*5)&15
		}
	}
	return accs, longs > 0
}

// wideRunsSeed holds wide runs (decodeRuns): a read run and a write run
// past the fold caps, at high words 1 and 2, and short runs that move the
// high word between 0, 2 and 3. It fails when a high-word run entry is
// dropped or a fold count is let past its cap.
var wideRunsSeed = []byte{0xb8, 0x50, 0x04, 0x10, 0xbb, 0x95, 0x86, 0xe0, 0x82, 0xc8, 0x04, 0x10}

// FuzzSilentFold checks that folding silent repeats is exact. For traces
// of single-node runs it requires that the folded form expands back to
// the trace record for record, and that replaying only the kept accesses
// (their batch kernels crediting the folded repeats) gives the full
// trace's RunResult bytes and cache statistics. It covers every directory
// policy and bus protocol, caches of one to four sets and infinite ones,
// blocks of 16, 64 and 256 bytes, and one and two shards.
func FuzzSilentFold(f *testing.F) {
	fuzzSeeds(f)
	// Alternating read/write runs by three nodes over two regions: fails
	// when writes fold before the node has written the granule.
	f.Add([]byte{0x78, 0x05, 0x7f, 0x18, 0x3d, 0x05, 0x7b, 0x30, 0x79, 0x18})
	// A node writes inside another's 64-byte block but not its granule:
	// fails when other nodes are judged by the granule, not the region.
	f.Add([]byte("\a200720"))
	// Repeated writes to an UpdateOnce line another node shares: fails
	// when folded writes are credited without the silent-write predicate.
	f.Add([]byte("0XZX"))
	// A sharer evicts an UpdateOnce line between a node's write to it and
	// that node's next write: fails when the folded write is dispatched
	// at the kept access, before the eviction.
	f.Add([]byte("C#7X70RX720"))
	f.Add(wideRunsSeed)
	const nodes = 4
	policies := append(core.Policies(), core.Stenstrom)
	type cacheShape struct{ sets, assoc int }
	shapes := []cacheShape{{0, 0}, {1, 2}, {2, 1}, {4, 2}}
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, _ := decodeRuns(data)
		accs := append(runs, decodeAccesses(data, nodes, 12)...)
		folded, err := trace.Fold(accs, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if got := folded.Expand(); len(accs) > 0 && !reflect.DeepEqual(got, accs) {
			t.Fatalf("Expand(Fold(t)) differs from t:\n%v\n%v", got, accs)
		}
		full := func() (trace.Source, error) { return trace.NewSliceSource(accs), nil }
		kept := func() (trace.Source, error) { return folded.OpenKept(), nil }
		for _, block := range []int{16, 64, 256} {
			geom := memory.MustGeometry(block, 4096)
			for _, sh := range shapes {
				cb := sh.sets * sh.assoc * block
				shards := directory.ResolveShards(2, cb, block, sh.assoc)
				for _, sc := range []int{1, shards} {
					for _, pol := range policies {
						name := fmt.Sprintf("%s/%dB/%dx%d/x%d", pol.Name, block, sh.sets, sh.assoc, sc)
						cfg := sim.RunConfig{Engine: sim.EngineDirectory, Nodes: nodes, Policy: pol.Name, Placement: sim.PlacementRoundRobin,
							CacheBytes: cb, Assoc: sh.assoc, BlockSize: block, Shards: sc}
						checkFoldedRun(t, name, cfg, full, kept, false)
						stats := func(open func() (trace.Source, error)) [3]uint64 {
							sys, err := directory.NewSharded(directory.Config{Nodes: nodes, Geometry: geom, CacheBytes: cb, Assoc: sh.assoc,
								Policy: pol, Placement: placement.NewRoundRobin(nodes)}, sc, nil)
							if err != nil {
								t.Fatal(err)
							}
							src, _ := open()
							if err := sys.RunSource(nil, src); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							h, m, e := sys.CacheStats()
							return [3]uint64{h, m, e}
						}
						if got, want := stats(kept), stats(full); got != want {
							t.Fatalf("%s: folded cache stats %v, full %v", name, got, want)
						}
					}
					for _, p := range snoop.Protocols() {
						name := fmt.Sprintf("%s/%dB/%dx%d/x%d", p, block, sh.sets, sh.assoc, sc)
						cfg := sim.RunConfig{Engine: sim.EngineBus, Nodes: nodes, Protocol: p.String(),
							CacheBytes: cb, Assoc: sh.assoc, BlockSize: block, Shards: sc}
						// UpdateOnce cells replay the exact trace
						// (sim.RunBusApps): a kept run there must match or
						// refuse the trace.
						if !checkFoldedRun(t, name, cfg, full, kept, p == snoop.UpdateOnce) {
							continue
						}
						stats := func(open func() (trace.Source, error)) [3]uint64 {
							sys, err := snoop.NewSharded(snoop.Config{Nodes: nodes, Geometry: geom, CacheBytes: cb, Assoc: sh.assoc, Protocol: p}, sc, nil)
							if err != nil {
								t.Fatal(err)
							}
							src, _ := open()
							if err := sys.RunSource(nil, src); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							h, m, e := sys.CacheStats()
							return [3]uint64{h, m, e}
						}
						if got, want := stats(kept), stats(full); got != want {
							t.Fatalf("%s: folded cache stats %v, full %v", name, got, want)
						}
					}
				}
			}
		}
	})
}

// checkFoldedRun runs cfg over the full trace and over the kept accesses
// of its folded form and requires equal RunResult bytes. With mayRefuse
// the kept run may instead fail with trace.ErrFolded, and checkFoldedRun
// reports whether it ran.
func checkFoldedRun(t *testing.T, name string, cfg sim.RunConfig, full, kept func() (trace.Source, error), mayRefuse bool) bool {
	t.Helper()
	result := func(open func() (trace.Source, error)) ([]byte, error) {
		cfg.OpenSource = open
		res, err := sim.Run(context.Background(), cfg)
		if err != nil {
			return nil, err
		}
		blob, _ := json.Marshal(res)
		return blob, nil
	}
	got, err := result(kept)
	if mayRefuse && errors.Is(err, trace.ErrFolded) {
		return false
	}
	if err != nil {
		t.Fatalf("%s: kept run: %v", name, err)
	}
	want, err := result(full)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: folded run differs from the full run:\n%s\n%s", name, got, want)
	}
	return true
}

// FuzzSegmentFold checks the segment cache's folded segments. It writes an
// arbitrary trace as v3 with tiny segments, so folding runs cross segment
// boundaries, where the folder restarts, and, when a run passes the fold
// caps, again with 16 KiB ones, so the cap is reached inside a segment.
// For each file, through the cache the exact face must equal an uncached
// decode, on a miss and on a hit. The kept face must give the full
// trace's RunResult bytes for every directory policy and
// every bus protocol but UpdateOnce, over caches of one to four sets and
// infinite ones, blocks of 16, 64 and 256 bytes, and one and two shards.
// And a sweep over an App on the cached file, whose cells bind chooses
// faces for, must count what the same sweep over the uncached file counts
// for every bus protocol, UpdateOnce included.
func FuzzSegmentFold(f *testing.F) {
	fuzzSeeds(f)
	f.Add([]byte{0x78, 0x05, 0x7f, 0x18, 0x3d, 0x05, 0x7b, 0x30, 0x79, 0x18})
	f.Add([]byte("0XZX"))
	f.Add([]byte("C#7X70RX720"))
	f.Add([]byte("\x7f\x10\x7f\x10\x7d\x10\x7f\x11\x79\x10\x7f\x10"))
	f.Add(wideRunsSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, long := decodeRuns(data)
		accs := append(runs, decodeAccesses(data, 4, 12)...)
		if len(accs) == 0 {
			return
		}
		checkSegmentFold(t, accs, 16)
		if long {
			// A run past the fold caps needs a segment that holds it
			// (about 2 bytes a record).
			checkSegmentFold(t, accs, 16<<10)
		}
	})
}

// checkSegmentFold writes accs, over 4 nodes, as a v3 file with segments
// of segBytes bytes and makes FuzzSegmentFold's checks on it.
func checkSegmentFold(t *testing.T, accs []trace.Access, segBytes int) {
	t.Helper()
	const nodes = 4
	policies := append(core.Policies(), core.Stenstrom)
	type cacheShape struct{ sets, assoc int }
	shapes := []cacheShape{{0, 0}, {1, 2}, {2, 1}, {4, 2}}
	var buf bytes.Buffer
	w := trace.NewWriterOptions(&buf, trace.Header{BlockSize: 16, PageSize: 4096, Nodes: nodes},
		trace.WriterOptions{SegmentBytes: segBytes})
	if _, err := trace.Copy(w, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.mtr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := trace.NewSegmentCache(1 << 20)
	open := func(cache *trace.SegmentCache, kept bool) (trace.Source, error) {
		src, err := trace.OpenFileParallelCache(path, 2, cache)
		if err != nil {
			return nil, err
		}
		if kept {
			src.WithKept()
		}
		return src, nil
	}
	for pass := range 2 {
		src, err := open(cache, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(src)
		src.Close()
		if err != nil || !reflect.DeepEqual(got, accs) {
			t.Fatalf("pass %d: cached exact face differs from the trace (%v):\n%v\n%v", pass, err, got, accs)
		}
	}
	full := func() (trace.Source, error) { return trace.NewSliceSource(accs), nil }
	kept := func() (trace.Source, error) { return open(cache, true) }
	for _, block := range []int{16, 64, 256} {
		for _, sh := range shapes {
			cb := sh.sets * sh.assoc * block
			for _, sc := range []int{1, directory.ResolveShards(2, cb, block, sh.assoc)} {
				for _, pol := range policies {
					cfg := sim.RunConfig{Engine: sim.EngineDirectory, Nodes: nodes, Policy: pol.Name, Placement: sim.PlacementRoundRobin,
						CacheBytes: cb, Assoc: sh.assoc, BlockSize: block, Shards: sc}
					checkFoldedRun(t, fmt.Sprintf("%s/%dB/%dx%d/x%d", pol.Name, block, sh.sets, sh.assoc, sc), cfg, full, kept, false)
				}
				for _, p := range snoop.Protocols() {
					if p == snoop.UpdateOnce {
						continue
					}
					cfg := sim.RunConfig{Engine: sim.EngineBus, Nodes: nodes, Protocol: p.String(),
						CacheBytes: cb, Assoc: sh.assoc, BlockSize: block, Shards: sc}
					checkFoldedRun(t, fmt.Sprintf("%s/%dB/%dx%d/x%d", p, block, sh.sets, sh.assoc, sc), cfg, full, kept, false)
				}
			}
		}
	}
	opts := sim.Options{Nodes: nodes, Parallelism: 1, Cache: cache}
	counts := func(cache *trace.SegmentCache) []snoop.Counts {
		app, err := sim.NewTraceFileApp(path, 2, cache, nodes)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sim.RunBusApps([]*sim.App{app}, opts, []int{64, 128, 0}, snoop.Protocols())
		if err != nil {
			t.Fatalf("bus sweep (cache %v): %v", cache != nil, err)
		}
		var out []snoop.Counts
		for _, cb := range sw.CacheSizes {
			for _, row := range sw.Rows[cb] {
				for _, c := range row.Cells {
					out = append(out, c.Counts)
				}
			}
		}
		return out
	}
	if got, want := counts(cache), counts(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("bus sweep over the cached file counts %+v, over the uncached one %+v", got, want)
	}
}
