package migratory

// Equivalence tests for the shared decoded-segment cache (TraceSegmentCache):
// a cached replay must be bit-identical to an uncached one across both
// untimed engines, several policies and protocols, sequential and sharded
// execution, and any decoder count — the cache is a throughput knob, never
// a semantics knob. Run under -race (make race / make ci) these double as
// the concurrency tests for the pin/eviction machinery.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"migratory/internal/trace"
)

// writeEquivTraceFile materializes the shared equivalence workload as an
// MTR3 file with small segments, so even this modest trace spans dozens of
// cacheable units.
func writeEquivTraceFile(t testing.TB, segBytes int) (string, []Access) {
	t.Helper()
	accs, err := GenerateWorkload("MP3D", 16, 1993, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriterOptions(&buf, TraceHeader{BlockSize: 16, PageSize: 4096, Nodes: 16},
		trace.WriterOptions{SegmentBytes: segBytes})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "equiv.mtr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, accs
}

// resultJSON runs cfg and returns the canonical JSON encoding of its
// result — the same bytes the cohd result cache stores, so equality here is
// the service's notion of bit-identity.
func resultJSON(t *testing.T, cfg RunConfig) string {
	t.Helper()
	res, err := Run(nil, cfg)
	if err != nil {
		t.Fatalf("%s/%s%s shards=%d decoders=%d: %v",
			cfg.Engine, cfg.Policy, cfg.Protocol, cfg.Shards, cfg.Decoders, err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestSegmentCacheRunEquivalence sweeps {directory, bus} engines, three
// variants each, shards {1, 8}, and decoders {1, 4}, comparing every cached
// cell against its uncached twin. One cache is shared across the whole
// matrix — exactly how a sweep or a cohd process uses it — and must see
// both traffic and reuse by the end.
func TestSegmentCacheRunEquivalence(t *testing.T) {
	path, _ := writeEquivTraceFile(t, 4<<10)
	cache := NewTraceSegmentCache(256 << 20)

	cells := []struct {
		engine, policy, protocol string
	}{
		{EngineDirectory, "conventional", ""},
		{EngineDirectory, "basic", ""},
		{EngineDirectory, "aggressive", ""},
		{EngineBus, "", "mesi"},
		{EngineBus, "", "adaptive"},
		{EngineBus, "", "berkeley"},
	}
	for _, cell := range cells {
		for _, shards := range []int{1, 8} {
			for _, decoders := range []int{1, 4} {
				cfg := RunConfig{
					Engine:     cell.engine,
					TraceFile:  path,
					Nodes:      16,
					CacheBytes: 16 << 10, // finite per-node caches: eviction paths run too
					Policy:     cell.policy,
					Protocol:   cell.protocol,
					Shards:     shards,
					Decoders:   decoders,
				}
				want := resultJSON(t, cfg)
				cfg.Cache = cache
				if got := resultJSON(t, cfg); got != want {
					t.Errorf("%s/%s%s shards=%d decoders=%d: cached result diverged\n got %s\nwant %s",
						cell.engine, cell.policy, cell.protocol, shards, decoders, got, want)
				}
			}
		}
	}
	st := cache.Stats()
	if st.Misses == 0 {
		t.Fatal("the cached matrix never decoded through the cache")
	}
	if st.Hits == 0 {
		t.Fatal("the cached matrix never reused a decoded segment")
	}
	if st.PinnedBytes != 0 {
		t.Fatalf("%d bytes still pinned after every run closed its source", st.PinnedBytes)
	}
}

// TestLegacyTraceConversion pins the v3-only run path at its boundary.
// MTR1 and MTR2 traces of the same accesses (the MTR2 one cut from a v3
// image: the record streams are byte-identical) are refused by every run
// path with ErrTraceNoIndex naming the converter: Run, and `paper -trace`
// with exit status 1. `tracegen -in old -o new` converts each into exactly
// the v3 file tracegen writes for those accesses, and a Run over the
// converted file gives RunResult bytes equal to the in-memory run.
func TestLegacyTraceConversion(t *testing.T) {
	accs, err := GenerateWorkload("MP3D", 16, 1993, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	w := NewTraceWriter(&v3, TraceHeader{BlockSize: 16, PageSize: 4096, Nodes: 16})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := trace.WriteTo(&v1, accs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := buildCommands(t, dir, "tracegen", "paper")
	// The commands' run manifests go to the test's directory, not to the
	// default results/ of the checkout.
	manifests := filepath.Join(dir, "manifests")

	base := RunConfig{Engine: EngineDirectory, Nodes: 16, Policy: "basic", CacheBytes: 64 << 10, Shards: 2}
	mem := base
	mem.OpenSource = func() (TraceSource, error) { return NewSliceTraceSource(accs), nil }
	want := resultJSON(t, mem)

	for name, img := range map[string][]byte{"MTR1": v1.Bytes(), "MTR2": mtr2Image(v3.Bytes())} {
		legacy := filepath.Join(dir, name+".mtr")
		if err := os.WriteFile(legacy, img, 0o644); err != nil {
			t.Fatal(err)
		}

		cfg := base
		cfg.TraceFile = legacy
		_, err := Run(nil, cfg)
		if !errors.Is(err, ErrTraceNoIndex) || !strings.Contains(fmt.Sprint(err), trace.ConvertCommand) {
			t.Fatalf("%s: Run = %v, want ErrTraceNoIndex naming %q", name, err, trace.ConvertCommand)
		}
		out, err := exec.Command(filepath.Join(bin, "paper"), "-trace", legacy, "-progress", "off", "-manifest-dir", manifests).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), trace.ConvertCommand) {
			t.Fatalf("%s: paper -trace: %v, want exit status 1 naming the converter\n%s", name, err, out)
		}
		out, err = exec.Command(filepath.Join(bin, "tracegen"), "-in", legacy, "-stats", "-manifest-dir", manifests).CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-o") {
			t.Fatalf("%s: tracegen -in without -o: %v, want a usage error naming -o\n%s", name, err, out)
		}

		conv := filepath.Join(dir, name+"-v3.mtr")
		if out, err := exec.Command(filepath.Join(bin, "tracegen"), "-in", legacy, "-o", conv, "-manifest-dir", manifests).CombinedOutput(); err != nil {
			t.Fatalf("%s: tracegen -in -o: %v\n%s", name, err, out)
		}
		got, err := os.ReadFile(conv)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v3.Bytes()) {
			t.Errorf("%s: converted file (%d bytes) differs from the v3 encoding (%d bytes)", name, len(got), v3.Len())
		}
		cfg.TraceFile = conv
		if got := resultJSON(t, cfg); got != want {
			t.Errorf("%s: run over the converted trace diverged from the in-memory run", name)
		}
	}
}

// mtr2Image turns a v3 image into the equivalent MTR2 one: cut the segment
// index and the footer (whose first 8 bytes locate the index) and swap in
// the MTR2 magic.
func mtr2Image(v3 []byte) []byte {
	indexOff := binary.LittleEndian.Uint64(v3[len(v3)-16:])
	out := append([]byte(nil), v3[:indexOff]...)
	copy(out, "MTR2")
	return out
}

// buildCommands builds the named cmd/ binaries into dir and returns dir.
func buildCommands(t *testing.T, dir string, names ...string) string {
	t.Helper()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("building %v: %v\n%s", names, err, out)
	}
	return dir
}

// TestSegmentCacheEvictionUnderLoad replays MP3D through a cache sized for
// only ~2 of its segments while 8 engine shards pull from 4 parallel
// decoders — constant eviction and re-decode under concurrency. Results
// must stay bit-identical; under -race this is the eviction-path
// concurrency test.
func TestSegmentCacheEvictionUnderLoad(t *testing.T) {
	path, _ := writeEquivTraceFile(t, 2<<10)
	src, err := OpenTraceFile(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := src.Index()
	maxCount := int64(0)
	for _, seg := range idx.Segments {
		if int64(seg.Count) > maxCount {
			maxCount = int64(seg.Count)
		}
	}
	nsegs := len(idx.Segments)
	src.Close()
	if nsegs < 8 {
		t.Fatalf("trace spans only %d segments; the eviction test needs churn", nsegs)
	}

	cache := NewTraceSegmentCache(2 * maxCount * 16) // room for ~2 decoded segments
	cfg := RunConfig{
		Engine:    EngineDirectory,
		TraceFile: path,
		Nodes:     16,
		Policy:    "aggressive",
		Shards:    8,
		Decoders:  4,
	}
	want := resultJSON(t, cfg)
	cfg.Cache = cache
	for i := 0; i < 3; i++ {
		if got := resultJSON(t, cfg); got != want {
			t.Fatalf("replay %d under eviction pressure diverged", i)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("cache sized for 2 of %d segments never evicted: %+v", nsegs, st)
	}
	if st.ResidentBytes > st.CapBytes {
		t.Fatalf("resident %d exceeds capacity %d with no pins outstanding", st.ResidentBytes, st.CapBytes)
	}
	if st.PinnedBytes != 0 {
		t.Fatalf("%d bytes still pinned", st.PinnedBytes)
	}
}
