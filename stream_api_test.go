package migratory

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestSentinelErrors: every lookup and codec failure is matchable with
// errors.Is through its wrapping layers.
func TestSentinelErrors(t *testing.T) {
	if _, err := PolicyByName("nope"); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("PolicyByName: %v not ErrUnknownPolicy", err)
	}
	if _, err := WorkloadByName("nope"); !errors.Is(err, ErrUnknownProfile) {
		t.Errorf("WorkloadByName: %v not ErrUnknownProfile", err)
	}
	if _, err := ParseEventKind("nope"); !errors.Is(err, ErrUnknownEventKind) {
		t.Errorf("ParseEventKind: %v not ErrUnknownEventKind", err)
	}
	if _, err := NewGeometry(13, 4096); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("NewGeometry: %v not ErrBadGeometry", err)
	}
	if _, err := NewGeometry(4096, 16); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("NewGeometry(block>page): %v not ErrBadGeometry", err)
	}

	// The generator source wraps profile lookup too.
	if _, err := NewGeneratorSource("nope", 16, 1, 0); !errors.Is(err, ErrUnknownProfile) {
		t.Errorf("NewGeneratorSource: %v not ErrUnknownProfile", err)
	}

	// Every advertised policy name resolves, including stenstrom.
	for _, name := range []string{"conventional", "conservative", "basic", "aggressive", "stenstrom"} {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
	}
}

// streamConfig is a small machine shared by the facade tests.
func streamConfig(t *testing.T) DirectoryConfig {
	t.Helper()
	return DirectoryConfig{
		Nodes:     16,
		Geometry:  MustGeometry(16, 4096),
		Policy:    Basic,
		Placement: RoundRobinPlacement(16),
	}
}

// TestRunDirectoryStreamed: the generator-backed source and the
// materialized slice land on bit-identical counters through RunSource.
func TestRunDirectoryStreamed(t *testing.T) {
	accs, err := GenerateWorkload("MP3D", 16, 1993, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	fromSlice, err := runDirectory(nil, NewSliceTraceSource(accs), streamConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	src, err := NewGeneratorSource("MP3D", 16, 1993, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	streamed, err := runDirectory(context.Background(), src, streamConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	if fromSlice.Messages() != streamed.Messages() {
		t.Fatalf("messages differ: %+v vs %+v", fromSlice.Messages(), streamed.Messages())
	}
	if fromSlice.Counters() != streamed.Counters() {
		t.Fatalf("counters differ: %+v vs %+v", fromSlice.Counters(), streamed.Counters())
	}
}

func TestRunBusStreamed(t *testing.T) {
	accs, err := GenerateWorkload("Water", 16, 1993, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := BusConfig{Nodes: 16, Geometry: MustGeometry(16, 4096), Protocol: BusAdaptive}
	fromSlice, err := runBus(nil, NewSliceTraceSource(accs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewGeneratorSource("Water", 16, 1993, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	streamed, err := runBus(nil, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromSlice.Counts() != streamed.Counts() {
		t.Fatalf("bus counts differ: %+v vs %+v", fromSlice.Counts(), streamed.Counts())
	}
}

// TestRunTimedSourceStreamed: same equivalence for the timing model.
func TestRunTimedSourceStreamed(t *testing.T) {
	accs, err := GenerateWorkload("Cholesky", 16, 1993, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TimingConfig{Nodes: 16, Geometry: MustGeometry(16, 4096), Policy: Basic}
	fromSlice, err := RunTimed(accs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewGeneratorSource("Cholesky", 16, 1993, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	streamed, err := runTimedSource(nil, src, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if fromSlice.Cycles != streamed.Cycles || fromSlice.Msgs != streamed.Msgs {
		t.Fatalf("timing results differ: %+v vs %+v", fromSlice, streamed)
	}
}

// TestAnalyzeTraceSourceEquivalence: the one-pass streaming census matches
// the slice analysis, including the pattern counts.
func TestAnalyzeTraceSourceEquivalence(t *testing.T) {
	accs, err := GenerateWorkload("Pthor", 16, 1993, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	geom := MustGeometry(16, 4096)
	want := AnalyzeTrace(accs, geom)

	src, err := NewGeneratorSource("Pthor", 16, 1993, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := AnalyzeTraceSource(src, geom)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("streamed census:\n%v\nslice census:\n%v", got, want)
	}

	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	patterns, err := ClassifyBlocksSource(src, geom)
	if err != nil {
		t.Fatal(err)
	}
	wantPatterns := ClassifyBlocks(accs, geom)
	if len(patterns) != len(wantPatterns) {
		t.Fatalf("classified %d blocks, want %d", len(patterns), len(wantPatterns))
	}
	for b, p := range wantPatterns {
		if patterns[b] != p {
			t.Fatalf("block %d: %v != %v", b, patterns[b], p)
		}
	}
}

// TestRunDirectoryCancellation: a cancelled context aborts the engine with
// ctx.Err().
func TestRunDirectoryCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, err := NewGeneratorSource("MP3D", 16, 1993, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := runDirectory(ctx, src, streamConfig(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSource under cancelled ctx = %v", err)
	}
}

// TestTraceWriterRoundTripAPI exercises the exported writer/decoder pair
// and the truncation sentinel.
func TestTraceWriterRoundTripAPI(t *testing.T) {
	accs, err := GenerateWorkload("Water", 16, 1993, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, TraceHeader{BlockSize: 16, PageSize: 4096, Nodes: 16})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	full := buf.Bytes()
	src, err := NewIndexedTraceSource(bytes.NewReader(full), int64(len(full)), 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("round trip: %d != %d", len(got), len(accs))
	}

	cut, err := NewIndexedTraceSource(bytes.NewReader(full[:len(full)/2]), int64(len(full)/2), 2)
	if err == nil {
		_, err = ReadTrace(cut)
	}
	if !errors.Is(err, ErrTraceTruncated) {
		t.Fatalf("truncated trace: %v not ErrTraceTruncated", err)
	}
}
