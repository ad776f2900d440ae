// Command inspect replays a trace under any protocol variant with the
// observability layer attached: it prints and filters the typed coherence
// event stream, reports per-node metrics, histograms, and the hottest
// blocks by coherence messages, and can export the stream as JSONL or as a
// Chrome trace_event file that opens in Perfetto (ui.perfetto.dev).
//
// Usage:
//
//	inspect -app MP3D -variant basic -max 50          # first 50 events
//	inspect -app MP3D -variant aggressive -kinds classify,declassify
//	inspect -trace t.mtr -engine bus -variant adaptive -blocks 3,17
//	inspect -app Water -variant basic -perfetto run.json -events=false
//	inspect -app MP3D -variant conservative -top 20 -jsonl events.jsonl
//
// Filters (-kinds, -blocks, -filter-nodes) restrict the printed stream and
// the JSONL/Perfetto exports; the metrics report always aggregates the full
// stream, so its message totals reconcile with the engine's cost counters.
// The trace is streamed — generated lazily or decoded straight off the
// file — so arbitrarily long replays hold O(1) trace state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"migratory/internal/cliutil"
	"migratory/internal/core"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// teleRun is the command's telemetry session; fatal funnels failures
// through it so even a failed replay leaves a manifest.
var teleRun *telemetry.Run

func fatal(format string, args ...any) {
	cliutil.FatalRun(teleRun, "inspect", format, args...)
}

func main() {
	var (
		app        = flag.String("app", "", "application profile to generate (see tracegen -list)")
		traceIn    = flag.String("trace", "", "replay a binary trace file (from tracegen) instead of generating")
		length     = flag.Int("length", 0, "generated trace length (0 = profile default)")
		seed       = flag.Int64("seed", 1993, "workload generator seed")
		nodes      = flag.Int("nodes", 16, "processor count")
		engine     = flag.String("engine", "directory", "protocol engine: directory or bus")
		variant    = flag.String("variant", "basic", "protocol variant (directory: conventional, conservative, basic, aggressive, stenstrom; bus: mesi, adaptive, adaptive-migrate-first, symmetry, berkeley, update-once)")
		cacheKB    = flag.Int("cache", 0, "per-node cache size in KB (0 = infinite)")
		blockSize  = flag.Int("block", 16, "block size in bytes")
		traceCache = flag.Int64("trace-cache-bytes", trace.DefaultTraceCacheBytes, "decoded-segment cache for indexed (v3) .mtr replays: the placement profiling pass and the simulation pass share decoded segments (0 = decode twice)")
		shards     = flag.Int("shards", 1, "engine shards, split by cache-set index (1 = sequential, -1 = all CPUs; metrics are identical either way, but per-event output needs -shards 1)")

		kinds     = flag.String("kinds", "", "comma-separated event kinds to show (default: all; e.g. classify,migration)")
		blocks    = flag.String("blocks", "", "comma-separated block IDs to show (default: all)")
		nodesFlt  = flag.String("filter-nodes", "", "comma-separated node IDs to show (default: all)")
		events    = flag.Bool("events", true, "print the (filtered) event stream")
		max       = flag.Int("max", 100, "print at most this many events (0 = unlimited)")
		top       = flag.Int("top", 10, "report the N hottest blocks by coherence messages (0 = skip)")
		metrics   = flag.Bool("metrics", true, "print the per-node metrics and histogram report")
		jsonlOut  = flag.String("jsonl", "", "write the (filtered) event stream as JSON lines to this file")
		perfetto  = flag.String("perfetto", "", "write a Chrome trace_event file (opens in Perfetto) to this file")
		listKinds = flag.Bool("list-kinds", false, "list the event kinds and exit")

		prof = cliutil.RegisterProfile("inspect")
		tele = cliutil.RegisterTelemetry("inspect")
	)
	flag.Parse()
	tele.SetupLogging()
	defer prof.Start()()

	if *listKinds {
		for _, k := range obs.Kinds() {
			fmt.Println(k)
		}
		return
	}

	filter, err := cliutil.ParseFilter(*kinds, *blocks, *nodesFlt)
	if err != nil {
		cliutil.Usagef("inspect", "%v", err)
	}

	if *shards < 1 && *shards != -1 {
		cliutil.Usagef("inspect", "-shards must be >= 1 or -1 for all CPUs (got %d)", *shards)
	}
	nshards := directory.ResolveShards(*shards, *cacheKB<<10, *blockSize, 0)
	if nshards > 1 {
		if *jsonlOut != "" || *perfetto != "" {
			cliutil.Usagef("inspect", "-jsonl/-perfetto need the single globally ordered event stream of -shards 1")
		}
		if *events {
			fmt.Fprintln(os.Stderr, "inspect: note: per-event printing is off under -shards > 1 (shards interleave events); metrics stay exact")
			*events = false
		}
	}

	switch {
	case *app == "" && *traceIn == "":
		cliutil.Usagef("inspect", "need -app or -trace")
	case *app != "" && *traceIn != "":
		cliutil.Usagef("inspect", "use -app or -trace, not both")
	}
	if *engine != sim.EngineDirectory && *engine != sim.EngineBus {
		cliutil.Usagef("inspect", "unknown engine %q (want directory or bus)", *engine)
	}
	if *traceCache < 0 {
		cliutil.Usagef("inspect", "-trace-cache-bytes must be >= 0 (0 disables the cache; got %d)", *traceCache)
	}
	segCache := trace.NewSegmentCache(*traceCache)
	if segCache != nil {
		telemetry.RegisterCacheStats(func() telemetry.CacheStats { return segCache.Stats() })
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()

	teleRun = tele.Start(sim.Options{Nodes: *nodes, Seed: *seed, Length: *length, Shards: *shards},
		*traceIn, map[string]any{"app": *app, "engine": *engine, "variant": *variant, "cache_kb": *cacheKB, "block": *blockSize})
	defer teleRun.Close(nil)

	// Assemble the per-event probe chain (printer and exporters behind the
	// filter); the full-stream metrics probes are built per shard inside run
	// and merged afterwards.
	var filtered obs.MultiProbe

	printed, truncated := 0, false
	if *events {
		filtered = append(filtered, obs.FuncProbe(func(e obs.Event) {
			if *max > 0 && printed >= *max {
				truncated = true
				return
			}
			printed++
			fmt.Println(e)
		}))
	}
	var jp *obs.JSONLProbe
	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		jp = obs.NewJSONLProbe(f)
		filtered = append(filtered, jp)
	}
	var tp *obs.TraceEventProbe
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		tp = obs.NewTraceEventProbe(f)
		filtered = append(filtered, tp)
	}
	var extra obs.Probe
	if len(filtered) > 0 {
		extra = obs.FilterProbe{Filter: filter, Next: filtered}
	}

	cfg := sim.RunConfig{
		Engine:     *engine,
		Workload:   *app,
		TraceFile:  *traceIn,
		Nodes:      *nodes,
		Seed:       *seed,
		Length:     *length,
		CacheBytes: *cacheKB << 10,
		BlockSize:  *blockSize,
		Shards:     nshards,
		Cache:      segCache,
	}
	mp := run(ctx, cfg, *variant, extra)

	if truncated {
		fmt.Printf("... (stream truncated at %d events; raise -max)\n", *max)
	}
	if jp != nil {
		if err := jp.Flush(); err != nil {
			fatal("writing %s: %v", *jsonlOut, err)
		}
		fmt.Printf("wrote JSONL event stream to %s\n", *jsonlOut)
	}
	if tp != nil {
		if err := tp.Close(); err != nil {
			fatal("writing %s: %v", *perfetto, err)
		}
		fmt.Printf("wrote Perfetto trace to %s (open at ui.perfetto.dev)\n", *perfetto)
	}

	mp.Finish()
	if *metrics {
		fmt.Printf("\nPer-node metrics (%s, %d events, %d blocks):\n\n", mp.Variant, mp.Total.Events, mp.BlockCount())
		if err := mp.RenderNodes().Render(os.Stdout); err != nil {
			fatal("%v", err)
		}
		fmt.Println()
		if err := mp.RenderHistograms().Render(os.Stdout); err != nil {
			fatal("%v", err)
		}
	}
	if *top > 0 {
		fmt.Printf("\nTop %d hottest blocks by coherence messages:\n\n", *top)
		if err := mp.RenderTopBlocks(*top).Render(os.Stdout); err != nil {
			fatal("%v", err)
		}
	}
	teleRun.Close(nil)
}

// run replays the configured trace under the selected engine and variant
// through the unified sim.Run entry point and returns the merged
// full-stream metrics probe. extra, when non-nil, is the filtered
// per-event chain (printer/exporters); it attaches to shard 0, which under
// -shards 1 is the whole stream. The directory engine's usage-based
// placement profiling pass happens inside sim.Run.
func run(ctx context.Context, cfg sim.RunConfig, variant string, extra obs.Probe) *obs.MetricsProbe {
	switch cfg.Engine {
	case sim.EngineDirectory:
		cfg.Policy = variant
	case sim.EngineBus:
		cfg.Protocol = variant
	}
	per := make([]*obs.MetricsProbe, cfg.Shards)
	cfg.Probes = func(i int) obs.Probe {
		per[i] = &obs.MetricsProbe{}
		var inner obs.Probe = per[i]
		if i == 0 && extra != nil {
			inner = obs.MultiProbe{per[i], extra}
		}
		// Forward event volume to the live telemetry counters, so the
		// /metrics endpoint shows the replay's event rate.
		return &obs.StatsProbe{Stats: teleRun.Stats(), Inner: inner}
	}
	cfg.Stats = teleRun.Stats()
	res, err := sim.Run(ctx, cfg)
	if err != nil {
		// Bad names and geometry are usage errors, like a bad flag; real
		// failures funnel through the manifest-sealing fatal.
		if errors.Is(err, core.ErrUnknownPolicy) || errors.Is(err, snoop.ErrUnknownProtocol) ||
			errors.Is(err, memory.ErrBadGeometry) {
			cliutil.Usagef("inspect", "%v", err)
		}
		fatal("%v", err)
	}
	switch cfg.Engine {
	case sim.EngineDirectory:
		m := res.Directory.Msgs
		fmt.Printf("\n%s/%s: %d accesses, %d short + %d data messages\n",
			cfg.Engine, variant, res.Accesses, m.Short, m.Data)
	default:
		fmt.Printf("\n%s/%s: %d accesses, %d bus transactions\n",
			cfg.Engine, variant, res.Accesses, res.Bus.Counts.Total())
	}
	return obs.MergeMetrics(per...)
}
