package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"migratory/internal/core"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
	"migratory/internal/timing"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

const (
	// genAccesses is how much of each profile workload.Generate emits per
	// repetition.
	genAccesses = 400_000
	// layerAccesses is the length of the MP3D trace the trace and engine
	// layers are timed on, fed from memory so decode is excluded.
	layerAccesses = 1_000_000
	// layerReps repeats every layer call; metrics are medians.
	layerReps = 3
	// runReps repeats the sim.Run overhead and encode measurements.
	runReps = 10
	// encodeCalls is how many json.Marshal calls one encode span covers.
	encodeCalls = 1000
	// renderCalls is how many renders of Tables 2 and 3 one span covers.
	renderCalls = 20
	// layerCacheBytes is the per-node cache of the engine layer runs and
	// of the cohd load's directory and bus requests.
	layerCacheBytes = 64 << 10
	nodes           = 16
)

// counts are the exact simulated counts of the traced run. They are
// pinned by goldens.json: any change is a correctness failure, not a
// speed result.
type counts struct {
	DirectoryMsgs       uint64 `json:"directory.msgs"`
	DirectoryMigrations uint64 `json:"directory.migrations"`
	Transitions         uint64 `json:"telemetry.transitions"`
	SegcacheMisses      uint64 `json:"trace.segcache_misses"`
}

// layerSuite times calls into each module's public functions, fed from
// in-memory traces generated from seed ws, and returns per-layer metrics
// plus the exact counts. Every call is a span under t.
func layerSuite(ctx context.Context, cfg *config, t *tracer, ws int64) (map[string]float64, counts, error) {
	var c counts
	pageGeom := memory.MustGeometry(16, sim.PageSize)
	mp3d, err := workload.ProfileByName("MP3D")
	if err != nil {
		return nil, c, err
	}
	accs, err := workload.Generate(mp3d, nodes, ws, layerAccesses)
	if err != nil {
		return nil, c, err
	}
	path := filepath.Join(cfg.tmp, "layers.mtr")
	pl := placement.UsageBased(accs, pageGeom, nodes)
	shards := cfg.nproc
	var stalls []float64

	for rep := 1; rep <= layerReps; rep++ {
		root := t.start("layers.rep", 0, rep)
		for _, p := range workload.Profiles() {
			sp := t.start("workload.generate", root, rep)
			gen, err := workload.Generate(p, nodes, ws, genAccesses)
			t.finish(sp, int64(len(gen)))
			if err != nil {
				return nil, c, err
			}
			sp = t.start("placement.profile", root, rep)
			_, err = placement.UsageBasedSource(trace.NewSliceSource(gen), pageGeom, nodes)
			t.finish(sp, int64(len(gen)))
			if err != nil {
				return nil, c, err
			}
		}

		sp := t.start("trace.write", root, rep)
		err := writeMTR(path, accs)
		t.finish(sp, int64(len(accs)))
		if err != nil {
			return nil, c, err
		}
		segs := trace.NewSegmentCache(trace.DefaultTraceCacheBytes)
		for _, name := range []string{"trace.decode_cold", "trace.decode_warm"} {
			sp := t.start(name, root, rep)
			n, err := drain(path, shards, segs)
			t.finish(sp, int64(n))
			if err != nil {
				return nil, c, err
			}
		}
		src, err := trace.OpenFileParallelCache(path, shards, segs)
		if err != nil {
			return nil, c, err
		}
		sp = t.start("trace.demux", root, rep)
		err = trace.DemuxParallel(ctx, src, shards, shards, false, nil,
			func(a trace.Access) int { return int(uint64(a.Addr)>>4) % shards },
			func(int, trace.ShardBatch) error { return nil })
		t.finish(sp, int64(len(accs)))
		src.Close()
		if err != nil {
			return nil, c, err
		}

		got, stall, err := engineLayers(ctx, t, root, rep, accs, pl)
		if err != nil {
			return nil, c, err
		}
		stalls = append(stalls, ms(stall))
		if rep > 1 && got != c {
			return nil, c, fmt.Errorf("engine counts changed between repetitions: %+v then %+v", c, got)
		}
		c = got
		t.finish(root, 0)
	}

	m := map[string]float64{
		"workload.gen_ns_per_access":       t.perWork("workload.generate"),
		"placement.profile_ns_per_access":  t.perWork("placement.profile"),
		"trace.write_ns_per_access":        t.perWork("trace.write"),
		"trace.decode_cold_ns_per_access":  t.perWork("trace.decode_cold"),
		"trace.decode_warm_ns_per_access":  t.perWork("trace.decode_warm"),
		"trace.demux_ns_per_access":        t.perWork("trace.demux"),
		"trace.demux_stall_ms":             median(stalls),
		"directory.ns_per_access":          t.perWork("directory.run"),
		"directory.sharded2_ns_per_access": t.perWork("directory.sharded2"),
		"snoop.ns_per_access":              t.perWork("snoop.run"),
		"timing.ns_per_access":             t.perWork("timing.run"),
	}
	if err := simLayers(ctx, cfg, t, ws, m); err != nil {
		return nil, c, err
	}
	return m, c, nil
}

// engineLayers runs the three engines (and the 2-shard directory) over
// the in-memory trace. It returns the directory's exact counts and the
// time the 2-shard run's demux producer spent blocked on a full shard
// queue.
func engineLayers(ctx context.Context, t *tracer, root, rep int, accs []trace.Access, pl placement.Policy) (counts, time.Duration, error) {
	var c counts
	geom := memory.MustGeometry(16, sim.PageSize)
	stats := &telemetry.RunStats{}
	dcfg := directory.Config{
		Nodes: nodes, Geometry: geom, CacheBytes: layerCacheBytes, Assoc: 4,
		Policy: core.Basic, Placement: pl, Stats: stats,
	}
	sp := t.start("directory.run", root, rep)
	sys, err := directory.New(dcfg)
	if err == nil {
		err = sys.RunSource(ctx, trace.NewSliceSource(accs))
	}
	t.finish(sp, int64(len(accs)))
	if err != nil {
		return c, 0, err
	}
	c.DirectoryMsgs = uint64(sys.Messages().Total())
	c.DirectoryMigrations = sys.Counters().Migrations
	c.Transitions = stats.Transitions.Load()

	// An in-memory source has no segment index, so the sharded run routes
	// through the single demux producer; its stall time is what retiring
	// that producer would remove.
	dcfg.Stats = &telemetry.RunStats{}
	sp = t.start("directory.sharded2", root, rep)
	sh, err := directory.NewSharded(dcfg, 2, nil)
	if err == nil {
		err = sh.RunSource(ctx, trace.NewSliceSource(accs))
	}
	t.finish(sp, int64(len(accs)))
	if err != nil {
		return c, 0, err
	}
	stall := time.Duration(dcfg.Stats.DemuxStallNs.Load())

	sp = t.start("snoop.run", root, rep)
	bus, err := snoop.New(snoop.Config{Nodes: nodes, Geometry: geom, CacheBytes: layerCacheBytes, Assoc: 4, Protocol: snoop.Adaptive})
	if err == nil {
		err = bus.RunSource(ctx, trace.NewSliceSource(accs))
	}
	t.finish(sp, int64(len(accs)))
	if err != nil {
		return c, 0, err
	}

	sp = t.start("timing.run", root, rep)
	_, err = timing.RunSource(ctx, trace.NewSliceSource(accs),
		timing.Config{Nodes: nodes, Geometry: geom, Policy: core.Basic, Params: timing.DefaultParams()})
	t.finish(sp, int64(len(accs)))
	return c, stall, err
}

// simLayers times the sweep worker pool on Table 2, the per-run overhead
// of sim.Run, result encoding and table rendering.
func simLayers(ctx context.Context, cfg *config, t *tracer, ws int64, m map[string]float64) error {
	opts := sim.Options{Context: ctx, Nodes: nodes, Seed: ws, Parallelism: cfg.nproc}
	var apps []*sim.App
	for _, p := range workload.Profiles() {
		sp := t.start("sim.prepare_app", 0, 0)
		app, err := sim.PrepareApp(p.Name, opts)
		t.finish(sp, 0)
		if err != nil {
			return err
		}
		apps = append(apps, app)
	}
	sp := t.start("sim.table2", 0, 0)
	start := time.Now()
	sw2, err := sim.Table2Apps(apps, opts)
	poolWall := time.Since(start)
	t.finish(sp, 0)
	if err != nil {
		return err
	}

	// The pool's cells are not visible from outside, so the same cells run
	// again on nproc goroutines pulling from a shared counter, the way the
	// pool schedules them, each timed as it runs.
	type cell struct {
		app *sim.App
		cb  int
		pol core.Policy
	}
	var cells []cell
	for _, app := range apps {
		for _, cb := range sim.Table2CacheSizes {
			for _, pol := range sw2.Options.Policies {
				cells = append(cells, cell{app, cb, pol})
			}
		}
	}
	busy := make([]time.Duration, len(cells))
	errs := make([]error, cfg.nproc)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells) && errs[w] == nil; i = int(next.Add(1)) - 1 {
				sp := t.start("sim.cell", 0, i+1)
				start := time.Now()
				_, errs[w] = sim.RunDirectoryCell(cells[i].app, opts, cells[i].pol, cells[i].cb, 16)
				busy[i] = time.Since(start)
				t.finish(sp, 0)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("pool worker %d: %w", w, err)
		}
	}
	var sum time.Duration
	var cellMS []float64
	for _, b := range busy {
		sum += b
		cellMS = append(cellMS, ms(b))
	}
	m["sim.cell_p50_ms"] = median(cellMS)
	m["sim.pool_efficiency"] = sum.Seconds() / (float64(cfg.nproc) * poolWall.Seconds())

	sw3, err := sim.Table3Apps(apps, opts)
	if err != nil {
		return err
	}
	for rep := 1; rep <= layerReps; rep++ {
		sp := t.start("stats.render", 0, rep)
		for i := 0; i < renderCalls; i++ {
			_ = sw2.Render().String() + sw3.Render().String()
		}
		t.finish(sp, renderCalls)
	}
	m["stats.render_ms"] = t.perWork("stats.render") / 1e6

	// sim.Run against the same work done by direct calls: the placement
	// profiling pass and the engine, each over its own generated source.
	rc := sim.RunConfig{Engine: sim.EngineDirectory, Workload: "MP3D", Seed: ws, Length: freshAccesses,
		Policy: "basic", CacheBytes: layerCacheBytes}
	var overhead []float64
	var res *sim.RunResult
	for rep := 1; rep <= runReps; rep++ {
		// Alternate which side runs first, each after a collection, so
		// neither inherits the other's garbage or warm caches.
		var runWall, parts time.Duration
		for side := 0; side < 2; side++ {
			runtime.GC()
			if (rep+side)%2 == 0 {
				sp := t.start("sim.run", 0, rep)
				start := time.Now()
				res, err = sim.Run(ctx, rc)
				runWall = time.Since(start)
				t.finish(sp, freshAccesses)
			} else {
				parts, err = directRun(ctx, t, rep, ws)
			}
			if err != nil {
				return err
			}
		}
		overhead = append(overhead, ms(runWall-parts))
	}
	m["sim.run_overhead_ms"] = median(overhead)

	for rep := 1; rep <= runReps; rep++ {
		sp := t.start("sim.result_encode", 0, rep)
		for i := 0; i < encodeCalls; i++ {
			if _, err := json.Marshal(res); err != nil {
				return err
			}
		}
		t.finish(sp, encodeCalls)
	}
	m["sim.result_encode_us"] = t.perWork("sim.result_encode") / 1e3
	return nil
}

// directRun does sim.Run's work for the cohd-style directory config by
// calling placement and the engine directly; it returns their summed wall.
func directRun(ctx context.Context, t *tracer, rep int, ws int64) (time.Duration, error) {
	prof, err := workload.ProfileByName("MP3D")
	if err != nil {
		return 0, err
	}
	root := t.start("sim.run_direct", 0, rep)
	defer t.finish(root, freshAccesses)
	start := time.Now()
	src, err := workload.NewSource(prof, nodes, ws, freshAccesses)
	if err != nil {
		return 0, err
	}
	pl, err := placement.UsageBasedSource(src, memory.MustGeometry(16, sim.PageSize), nodes)
	src.Close()
	if err != nil {
		return 0, err
	}
	if src, err = workload.NewSource(prof, nodes, ws, freshAccesses); err != nil {
		return 0, err
	}
	defer src.Close()
	sys, err := directory.New(directory.Config{
		Nodes: nodes, Geometry: memory.MustGeometry(16, sim.PageSize), CacheBytes: layerCacheBytes, Assoc: 4,
		Policy: core.Basic, Placement: pl,
	})
	if err != nil {
		return 0, err
	}
	if err := sys.RunSource(ctx, src); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// writeMTR writes accs as an indexed v3 trace, the way cmd/tracegen does.
func writeMTR(path string, accs []trace.Access) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := trace.NewWriterOptions(f, trace.Header{BlockSize: 16, PageSize: sim.PageSize, Nodes: nodes},
		trace.WriterOptions{Version: 3})
	if _, err := trace.Copy(w, trace.NewSliceSource(accs)); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drain reads a trace file to the end through the parallel, cached opener
// and returns the number of accesses.
func drain(path string, decoders int, segs *trace.SegmentCache) (int, error) {
	src, err := trace.OpenFileParallelCache(path, decoders, segs)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	total := 0
	for {
		n, err := trace.FillBatch(src, buf)
		total += n
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}
