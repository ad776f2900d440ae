package migratory

// Equivalence tests for set-sharded execution: a sharded run must produce
// bit-identical counters, cache statistics, histograms, classifier
// verdicts, and merged probe metrics to the sequential run of the same
// configuration, for every policy, both untimed engines, and every source
// kind. Run them under -race (make race / make ci) to also exercise the
// demux pipeline's synchronization.

import (
	"bytes"
	"reflect"
	"testing"
)

// shardCounts are the shard widths the equivalence tests sweep. 8 shards
// exceed this repo's CI core count, which is fine: correctness does not
// depend on parallel speedup.
var shardCounts = []int{2, 8}

func TestShardedDirectoryEquivalence(t *testing.T) {
	accs, mtr := equivTrace(t)
	sources := equivSources(t, accs, mtr)
	for _, pol := range append(Policies(), Stenstrom) {
		for name, open := range sources {
			cfg := DirectoryConfig{
				Nodes:      16,
				Geometry:   MustGeometry(16, 4096),
				CacheBytes: 16 << 10, // 256 sets: finite, so eviction paths shard too
				Policy:     pol,
				Placement:  RoundRobinPlacement(16),
			}
			seq, err := runDirectory(nil, open(), cfg)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", pol, name, err)
			}
			for _, shards := range shardCounts {
				sys, err := NewShardedDirectorySystem(cfg, shards, nil)
				if err != nil {
					t.Fatalf("%s/%s x%d: %v", pol, name, shards, err)
				}
				if err := sys.RunSource(nil, open()); err != nil {
					t.Fatalf("%s/%s x%d: %v", pol, name, shards, err)
				}
				if err := sys.CheckInvariants(); err != nil {
					t.Fatalf("%s/%s x%d: %v", pol, name, shards, err)
				}
				if got, want := sys.Messages(), seq.Messages(); got != want {
					t.Fatalf("%s/%s x%d messages: %+v, want %+v", pol, name, shards, got, want)
				}
				if got, want := sys.Counters(), seq.Counters(); got != want {
					t.Fatalf("%s/%s x%d counters: %+v, want %+v", pol, name, shards, got, want)
				}
				sh, sm, se := sys.CacheStats()
				qh, qm, qe := seq.CacheStats()
				if sh != qh || sm != qm || se != qe {
					t.Fatalf("%s/%s x%d cache stats: %d/%d/%d, want %d/%d/%d",
						pol, name, shards, sh, sm, se, qh, qm, qe)
				}
				if got, want := sys.MigratoryBlocks(), seq.MigratoryBlocks(); got != want {
					t.Fatalf("%s/%s x%d migratory blocks: %d, want %d", pol, name, shards, got, want)
				}
				if got, want := sys.EverMigratory(), seq.EverMigratory(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s x%d: classifier verdicts diverged (%d vs %d blocks)",
						pol, name, shards, len(got), len(want))
				}
				if got, want := sys.InvalidationHistogram(), seq.InvalidationHistogram(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s x%d histogram: %v, want %v", pol, name, shards, got, want)
				}
			}
		}
	}
}

func TestShardedBusEquivalence(t *testing.T) {
	accs, mtr := equivTrace(t)
	sources := equivSources(t, accs, mtr)
	protocols := []BusProtocol{BusMESI, BusAdaptive, BusAdaptiveMigrateFirst,
		BusSymmetry, BusBerkeley, BusUpdateOnce}
	for _, prot := range protocols {
		for name, open := range sources {
			cfg := BusConfig{
				Nodes:      16,
				Geometry:   MustGeometry(16, 4096),
				CacheBytes: 16 << 10,
				Protocol:   prot,
			}
			seq, err := runBus(nil, open(), cfg)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", prot, name, err)
			}
			for _, shards := range shardCounts {
				sys, err := NewShardedBusSystem(cfg, shards, nil)
				if err != nil {
					t.Fatalf("%s/%s x%d: %v", prot, name, shards, err)
				}
				if err := sys.RunSource(nil, open()); err != nil {
					t.Fatalf("%s/%s x%d: %v", prot, name, shards, err)
				}
				if err := sys.CheckInvariants(); err != nil {
					t.Fatalf("%s/%s x%d: %v", prot, name, shards, err)
				}
				if got, want := sys.Counts(), seq.Counts(); got != want {
					t.Fatalf("%s/%s x%d counts: %+v, want %+v", prot, name, shards, got, want)
				}
				if got, want := sys.Migrations(), seq.Migrations(); got != want {
					t.Fatalf("%s/%s x%d migrations: %d, want %d", prot, name, shards, got, want)
				}
				gr, gw := sys.Hits()
				wr, ww := seq.Hits()
				if gr != wr || gw != ww {
					t.Fatalf("%s/%s x%d hits: %d/%d, want %d/%d", prot, name, shards, gr, gw, wr, ww)
				}
			}
		}
	}
}

// TestShardedMetricsProbeEquivalence runs the probe-attached sharded path:
// per-shard MetricsProbes, merged in shard order, must match the single
// sequential probe field for field — including the step-distance
// histograms, which depend on events carrying global access indices.
func TestShardedMetricsProbeEquivalence(t *testing.T) {
	accs, _ := equivTrace(t)
	cfg := DirectoryConfig{
		Nodes:      16,
		Geometry:   MustGeometry(16, 4096),
		CacheBytes: 16 << 10,
		Policy:     Aggressive,
		Placement:  RoundRobinPlacement(16),
	}
	seqProbe := &MetricsProbe{}
	seqCfg := cfg
	seqCfg.Probe = seqProbe
	if _, err := runDirectory(nil, NewSliceTraceSource(accs), seqCfg); err != nil {
		t.Fatal(err)
	}
	seqProbe.Finish()

	for _, shards := range shardCounts {
		per := make([]*MetricsProbe, shards)
		sys, err := NewShardedDirectorySystem(cfg, shards, func(i int) Probe {
			per[i] = &MetricsProbe{}
			return per[i]
		})
		if err != nil {
			t.Fatalf("x%d: %v", shards, err)
		}
		if err := sys.RunSource(nil, NewSliceTraceSource(accs)); err != nil {
			t.Fatalf("x%d: %v", shards, err)
		}
		merged := MergeMetrics(per...)
		if merged.Variant != seqProbe.Variant {
			t.Fatalf("x%d variant: %q, want %q", shards, merged.Variant, seqProbe.Variant)
		}
		if merged.Total != seqProbe.Total {
			t.Fatalf("x%d total: %+v, want %+v", shards, merged.Total, seqProbe.Total)
		}
		if merged.ByKind != seqProbe.ByKind {
			t.Fatalf("x%d by-kind: %v, want %v", shards, merged.ByKind, seqProbe.ByKind)
		}
		for n := 0; n < cfg.Nodes; n++ {
			if got, want := merged.Node(NodeID(n)), seqProbe.Node(NodeID(n)); got != want {
				t.Fatalf("x%d node %d: %+v, want %+v", shards, n, got, want)
			}
		}
		if !reflect.DeepEqual(merged.MigrationRuns, seqProbe.MigrationRuns) {
			t.Fatalf("x%d migration runs: %+v, want %+v", shards, merged.MigrationRuns, seqProbe.MigrationRuns)
		}
		if !reflect.DeepEqual(merged.ClassifyLatency, seqProbe.ClassifyLatency) {
			t.Fatalf("x%d classify latency: %+v, want %+v", shards, merged.ClassifyLatency, seqProbe.ClassifyLatency)
		}
		if got, want := merged.BlockCount(), seqProbe.BlockCount(); got != want {
			t.Fatalf("x%d block count: %d, want %d", shards, got, want)
		}
	}
}

// TestShardedSweepEquivalence drives sharding through the sim layer: the
// whole Table 2 sweep (five policies, five cache sizes) must render
// identically at any Shards setting, including the -1 auto value and a
// non-power-of-two request (rounded down).
func TestShardedSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 sweep")
	}
	base := ExperimentOptions{Nodes: 16, Seed: 1993, Length: 20_000, Apps: []string{"MP3D"}}
	seq, err := Table2(base)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Render().String()
	for _, shards := range []int{2, 3, 8, -1} {
		opts := base
		opts.Shards = shards
		got, err := Table2(opts)
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		if s := got.Render().String(); s != want {
			t.Fatalf("Shards=%d Table 2 diverged:\n%s\nwant:\n%s", shards, s, want)
		}
	}
}

// TestTimingRejectsShards pins the documented restriction: the timing model
// serializes transactions on a global bus and refuses to shard, even with
// the auto value.
func TestTimingRejectsShards(t *testing.T) {
	for _, shards := range []int{2, -1} {
		opts := ExperimentOptions{Nodes: 16, Seed: 1993, Length: 1000,
			Apps: []string{"MP3D"}, Shards: shards}
		if _, err := ExecutionTime(opts, Basic, 0); err == nil {
			t.Fatalf("Shards=%d: execution-driven timing accepted sharding", shards)
		}
	}
	opts := ExperimentOptions{Nodes: 16, Seed: 1993, Length: 1000,
		Apps: []string{"MP3D"}, Shards: 1}
	if _, err := ExecutionTime(opts, Basic, 0); err != nil {
		t.Fatalf("Shards=1: %v", err)
	}
}

// TestShardedJSONLProbe drives the sharded path with per-shard JSONL
// probes attached — the supported way to export events from a sharded run
// (one stream per shard; JSONLProbe itself is not thread-safe). The total
// exported line count must equal the sequential event count. Run under
// -race this doubles as the concurrency test for the probe-attached
// stamped path.
func TestShardedJSONLProbe(t *testing.T) {
	accs, _ := equivTrace(t)
	cfg := DirectoryConfig{
		Nodes:      16,
		Geometry:   MustGeometry(16, 4096),
		CacheBytes: 16 << 10,
		Policy:     Basic,
		Placement:  RoundRobinPlacement(16),
	}
	seqProbe := &MetricsProbe{}
	seqCfg := cfg
	seqCfg.Probe = seqProbe
	if _, err := runDirectory(nil, NewSliceTraceSource(accs), seqCfg); err != nil {
		t.Fatal(err)
	}

	const shards = 4
	bufs := make([]*bytes.Buffer, shards)
	jps := make([]*JSONLProbe, shards)
	sys, err := NewShardedDirectorySystem(cfg, shards, func(i int) Probe {
		bufs[i] = &bytes.Buffer{}
		jps[i] = NewJSONLProbe(bufs[i])
		return jps[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunSource(nil, NewSliceTraceSource(accs)); err != nil {
		t.Fatal(err)
	}
	var lines uint64
	for i := range jps {
		if err := jps[i].Flush(); err != nil {
			t.Fatal(err)
		}
		lines += uint64(bytes.Count(bufs[i].Bytes(), []byte("\n")))
	}
	if lines != seqProbe.Total.Events {
		t.Fatalf("sharded JSONL exported %d events, sequential probe saw %d",
			lines, seqProbe.Total.Events)
	}
}
