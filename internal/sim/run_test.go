package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"migratory/internal/core"
	"migratory/internal/memory"
	"migratory/internal/snoop"
	"migratory/internal/workload"
)

// TestRunConfigValidateSentinels checks that Validate surfaces each
// package's typed sentinel through errors.Is, so the CLI and the cohd HTTP
// layer can classify bad configs identically.
func TestRunConfigValidateSentinels(t *testing.T) {
	base := RunConfig{Engine: EngineDirectory, Workload: "MP3D", Policy: "basic"}
	cases := []struct {
		name string
		mut  func(*RunConfig)
		want error
	}{
		{"unknown engine", func(c *RunConfig) { c.Engine = "quantum" }, ErrUnknownEngine},
		{"unknown workload", func(c *RunConfig) { c.Workload = "Doom" }, workload.ErrUnknownProfile},
		{"unknown policy", func(c *RunConfig) { c.Policy = "psychic" }, core.ErrUnknownPolicy},
		{"unknown protocol", func(c *RunConfig) {
			c.Engine = EngineBus
			c.Policy = ""
			c.Protocol = "token-ring"
		}, snoop.ErrUnknownProtocol},
		{"unknown placement", func(c *RunConfig) { c.Placement = "numa" }, ErrUnknownPlacement},
		{"bad geometry", func(c *RunConfig) { c.BlockSize = 24 }, memory.ErrBadGeometry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := cfg.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestRunConfigValidateFieldDiscipline checks that settings the selected
// engine would silently ignore are rejected rather than dropped (silent
// drift would poison the content-hash result cache).
func TestRunConfigValidateFieldDiscipline(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"no source", RunConfig{Engine: EngineDirectory, Policy: "basic"}},
		{"two sources", RunConfig{Engine: EngineDirectory, Policy: "basic", Workload: "MP3D", TraceFile: "x.mtr"}},
		{"protocol on directory", RunConfig{Engine: EngineDirectory, Workload: "MP3D", Policy: "basic", Protocol: "mesi"}},
		{"policy on bus", RunConfig{Engine: EngineBus, Workload: "MP3D", Protocol: "mesi", Policy: "basic"}},
		{"hysteresis on directory", RunConfig{Engine: EngineDirectory, Workload: "MP3D", Policy: "basic", Hysteresis: 2}},
		{"dir pointers on bus", RunConfig{Engine: EngineBus, Workload: "MP3D", Protocol: "mesi", DirPointers: 4}},
		{"placement on bus", RunConfig{Engine: EngineBus, Workload: "MP3D", Protocol: "mesi", Placement: PlacementUsage}},
		{"sharded timing", RunConfig{Engine: EngineTiming, Workload: "MP3D", Policy: "basic", Shards: 2}},
		{"negative shards", RunConfig{Engine: EngineDirectory, Workload: "MP3D", Policy: "basic", Shards: -3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatalf("Validate() accepted %+v", tc.cfg)
			}
		})
	}
}

// TestRunDeterministic runs the same config twice per engine and expects
// bit-identical JSON results — the property the cohd result cache relies
// on.
func TestRunDeterministic(t *testing.T) {
	configs := []RunConfig{
		{Engine: EngineDirectory, Workload: "MP3D", Policy: "aggressive", Length: 20_000},
		{Engine: EngineBus, Workload: "Water", Protocol: "adaptive", Length: 20_000},
		{Engine: EngineTiming, Workload: "MP3D", Policy: "basic", Length: 10_000, CacheBytes: 1 << 14},
	}
	for _, cfg := range configs {
		t.Run(cfg.Engine, func(t *testing.T) {
			a, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(nil, cfg) // nil ctx must behave like Background
			if err != nil {
				t.Fatal(err)
			}
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if string(aj) != string(bj) {
				t.Fatalf("results differ:\n%s\n%s", aj, bj)
			}
			if a.Accesses == 0 {
				t.Fatal("no accesses simulated")
			}
		})
	}
}

// TestRunShardEquivalence checks that sharding is invisible in the results,
// as the sharded-engine contract promises, including a request for more
// shards than an 8-way cache has sets (the cap follows Assoc).
func TestRunShardEquivalence(t *testing.T) {
	for _, tc := range []struct {
		cfg    RunConfig
		shards int
	}{
		{RunConfig{Engine: EngineDirectory, Workload: "Water", Policy: "basic", Length: 20_000, CacheBytes: 1 << 15}, -1},
		{RunConfig{Engine: EngineDirectory, Workload: "Water", Policy: "basic", Length: 20_000, CacheBytes: 4 << 10, Assoc: 8}, 64},
		{RunConfig{Engine: EngineBus, Workload: "Water", Protocol: "adaptive", Length: 20_000, CacheBytes: 4 << 10, Assoc: 8}, 64},
	} {
		cfg := tc.cfg
		seq, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = tc.shards
		par, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s engine, %d shards: %v", cfg.Engine, tc.shards, err)
		}
		sj, _ := json.Marshal(seq)
		pj, _ := json.Marshal(par)
		if string(sj) != string(pj) {
			t.Fatalf("%s engine, %d shards: sharded result drifted:\n%s\n%s", cfg.Engine, tc.shards, sj, pj)
		}
	}
}

// TestRunCancellation checks that a pre-cancelled context aborts the run
// with ctx.Err.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, RunConfig{Engine: EngineDirectory, Workload: "MP3D", Policy: "basic", Length: 50_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestDigestStability checks the cache-key contract: sparse configs and
// their spelled-out equivalents hash identically, any semantic change
// rehashes, and in-process overrides refuse to hash at all.
func TestDigestStability(t *testing.T) {
	sparse := RunConfig{Engine: EngineDirectory, Workload: "MP3D", Policy: "basic"}
	full := RunConfig{
		Engine: EngineDirectory, Workload: "MP3D", Policy: "basic",
		Nodes: 16, Seed: 1993, BlockSize: 16, Assoc: 4, Shards: 1,
		Placement: PlacementUsage,
	}
	ds, err := sparse.Digest()
	if err != nil {
		t.Fatal(err)
	}
	df, err := full.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if ds != df {
		t.Fatalf("sparse and spelled-out configs hash differently: %s vs %s", ds, df)
	}

	other := sparse
	other.Seed = 7
	do, err := other.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if do == ds {
		t.Fatal("different seeds hashed identically")
	}

	overridden := sparse
	overridden.PlacementPolicy = placementStub{}
	if _, err := overridden.Digest(); !errors.Is(err, ErrNoDigest) {
		t.Fatalf("config with in-process override: Digest = %v, want ErrNoDigest", err)
	}
}

type placementStub struct{}

func (placementStub) Home(memory.PageID) memory.NodeID { return 0 }
func (placementStub) Name() string                     { return "stub" }
