package sim

import (
	"fmt"

	"migratory/internal/core"
	"migratory/internal/stats"
	"migratory/internal/timing"
)

// ExecApps are the three applications §4.2 simulates execution-driven: the
// ones with the largest trace-driven message reductions.
var ExecApps = []string{"Cholesky", "MP3D", "Water"}

// execThink models each application's computation intensity between shared
// accesses (instructions and private data are absent from the access
// streams). MP3D touches shared particle state almost continuously, so its
// execution time is dominated by the memory system; Water performs long
// force computations per molecule pair.
var execThink = map[string]uint64{
	"Cholesky":    40,
	"Locus Route": 20,
	"MP3D":        30,
	"Pthor":       16,
	"Water":       210,
}

// ExecRow is one application's execution-driven comparison.
type ExecRow struct {
	App      string
	Base     timing.Result // conventional protocol
	Adaptive timing.Result // comparison protocol (paper: basic)
	// ReductionPct is the parallel execution-time reduction.
	ReductionPct float64
}

// ExecutionTime reproduces §4.2: execution-driven simulation of the
// conventional protocol versus the given adaptive policy (the paper uses
// basic) on the ExecApps, with round-robin placement and DASH-like
// latencies. cacheBytes of 0 uses 64 KB per node.
func ExecutionTime(opts Options, policy core.Policy, cacheBytes int) ([]ExecRow, error) {
	if err := rejectShards(opts); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	apps, err := PrepareApps(opts)
	if err != nil {
		return nil, err
	}
	return ExecutionTimeApps(apps, opts, policy, cacheBytes)
}

// rejectShards refuses set sharding for the timing model: the simulated
// bus serializes every transaction globally, so a timed run cannot be
// partitioned by set index. The check looks at the raw option — even
// -shards -1 (auto) is rejected rather than resolved, so the error does
// not depend on the machine's core count.
func rejectShards(opts Options) error {
	if opts.Shards != 0 && opts.Shards != 1 {
		return fmt.Errorf("sim: execution-driven timing cannot shard (Shards=%d): the bus serializes transactions globally", opts.Shards)
	}
	return nil
}

// ExecutionTimeApps is ExecutionTime over caller-prepared apps (external
// traces wrapped with NewApp or NewSourceApp).
func ExecutionTimeApps(apps []*App, opts Options, policy core.Policy, cacheBytes int) ([]ExecRow, error) {
	if err := rejectShards(opts); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if cacheBytes == 0 {
		cacheBytes = 64 << 10
	}

	// Two independent timing simulations per application (conventional and
	// adaptive), fanned out together.
	results := make([]timing.Result, 2*len(apps))
	err := runIndexed(opts.ctx(), len(results), opts.workers(), func(i int) error {
		app := apps[i/2]
		params := timing.DefaultParams()
		if t, ok := execThink[app.Name]; ok {
			params.ThinkCycles = t
		}
		pol := core.Conventional
		if i%2 == 1 {
			pol = policy
		}
		res, err := Run(opts.ctx(), RunConfig{
			Engine:       EngineTiming,
			Nodes:        opts.Nodes,
			CacheBytes:   cacheBytes,
			TimingParams: &params,
			Cache:        opts.Cache,
			OpenSource:   opts.cachedOpen(app.Open),
			policy:       &pol,
		})
		if err != nil {
			if cerr := opts.ctx().Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("%s/%s: %w", app.Name, pol.Name, err)
		}
		results[i] = *res.Timing
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]ExecRow, 0, len(apps))
	for ai, app := range apps {
		base, adp := results[2*ai], results[2*ai+1]
		rows = append(rows, ExecRow{
			App:          app.Name,
			Base:         base,
			Adaptive:     adp,
			ReductionPct: timing.Reduction(base, adp),
		})
	}
	return rows, nil
}

// RenderExec formats the §4.2 comparison.
func RenderExec(rows []ExecRow, policy core.Policy) *stats.Table {
	tab := &stats.Table{
		Header: []string{"app", "conventional cycles", policy.Name + " cycles", "time reduction", "stall(conv)", "stall(" + policy.Name + ")"},
	}
	for _, r := range rows {
		tab.Add(r.App,
			fmt.Sprintf("%d", r.Base.Cycles),
			fmt.Sprintf("%d", r.Adaptive.Cycles),
			stats.Percent(r.ReductionPct)+"%",
			stats.Percent(100*r.Base.StallFraction())+"%",
			stats.Percent(100*r.Adaptive.StallFraction())+"%")
	}
	return tab
}
