package migratory

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"migratory/internal/core"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/placement"
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
}

// FuzzDirectoryProtocols hammers every directory policy with arbitrary
// traces, checking the structural invariants and that no processor ever
// observes a stale value.
func FuzzDirectoryProtocols(f *testing.F) {
	fuzzSeeds(f)
	geom := memory.MustGeometry(16, 4096)
	policies := append(core.Policies(), core.Stenstrom)
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, 5, 12)
		for _, pol := range policies {
			sys, err := directory.New(directory.Config{
				Nodes: 5, Geometry: geom, CacheBytes: 128, Assoc: 2,
				Policy: pol, Placement: placement.NewRoundRobin(5),
				CheckCoherence: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range accs {
				if err := sys.Access(a); err != nil {
					t.Fatalf("%s: access %d (%v): %v", pol.Name, i, a, err)
				}
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", pol.Name, err)
			}
		}
	})
}

// FuzzSnoopProtocols is the bus-side twin, covering all five protocols and
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
			sys, err := snoop.New(snoop.Config{
				Nodes: 5, Geometry: geom, CacheBytes: 128, Assoc: 2,
				Protocol: v.p, Hysteresis: v.h, CheckCoherence: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range accs {
				if err := sys.Access(a); err != nil {
					t.Fatalf("%s/h%d: access %d (%v): %v", v.p, v.h, i, a, err)
				}
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatalf("%s/h%d: %v", v.p, v.h, err)
			}
		}
	})
}

// FuzzMTRRoundTrip encodes arbitrary traces in the streaming .mtr format
// and decodes them back: the round trip must be exact, and every truncated
// prefix must error (never succeed, never panic).
func FuzzMTRRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, 64, 250)
		var buf bytes.Buffer
		w := trace.NewWriter(&buf, trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 64})
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()

		src, err := trace.NewFileSource(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(src)
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
			tsrc, err := trace.NewFileSource(bytes.NewReader(full[:cut]))
			if err == nil {
				_, err = trace.ReadAll(tsrc)
			}
			if err == nil {
				t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(full))
			}
		}
	})
}

// FuzzMTRDecode feeds arbitrary bytes to the .mtr decoder: any input may be
// rejected, none may panic or be silently misread as a valid trace longer
// than the data could hold.
func FuzzMTRDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MTR2"))
	f.Add([]byte("MTR2\x00\x00\x00"))
	f.Add([]byte("MTR2\x10\x80\x20\x10\x03\x02\x00\x01"))
	f.Add([]byte("MTR1\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := trace.NewFileSource(bytes.NewReader(data))
		if err != nil {
			return
		}
		accs, err := trace.ReadAll(src)
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
		fsrc, err := trace.NewFileSource(bytes.NewReader(b))
		var want []trace.Access
		if err == nil {
			want, err = trace.ReadAll(fsrc)
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

// FuzzTraceCodec round-trips arbitrary traces through the binary format.
func FuzzTraceCodec(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := decodeAccesses(data, 64, 250)
		var buf bytes.Buffer
		if err := trace.WriteTo(&buf, accs); err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadFrom(&buf)
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
		src, err := OpenIndexedTraceFileCache(path, 2, cache)
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
