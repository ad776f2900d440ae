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
	apps, err := PrepareApps(opts)
	if err != nil {
		return nil, err
	}
	return ExecutionTimeApps(apps, opts, policy, cacheBytes)
}

// ExecutionTimeApps is ExecutionTime over caller-prepared apps (external
// traces wrapped with NewApp or NewSourceApp). The simulated bus
// serializes every transaction globally, so a timed run cannot be
// partitioned by set index: the pool runs every cell unsharded and spends
// opts.Shards on more cells at once instead (runCells).
func ExecutionTimeApps(apps []*App, opts Options, policy core.Policy, cacheBytes int) ([]ExecRow, error) {
	opts = opts.withDefaults()
	if cacheBytes == 0 {
		cacheBytes = 64 << 10
	}

	// Two independent timing simulations per application: conventional,
	// then the adaptive policy.
	pols := []core.Policy{core.Conventional, policy}
	cfgs := make([]RunConfig, 2*len(apps))
	for i := range cfgs {
		params := timing.DefaultParams()
		if t, ok := execThink[apps[i/2].Name]; ok {
			params.ThinkCycles = t
		}
		cfgs[i] = apps[i/2].bind(RunConfig{
			Engine:       EngineTiming,
			Nodes:        opts.Nodes,
			CacheBytes:   cacheBytes,
			Shards:       opts.Shards,
			TimingParams: &params,
			Stats:        opts.Stats,
			Cache:        opts.Cache,
			policy:       &pols[i%2],
		})
	}
	results := make([]timing.Result, len(cfgs))
	err := runCells(opts, cfgs, nil,
		func(i int) string { return apps[i/2].Name + "/" + pols[i%2].Name },
		func(i int, res *RunResult) { results[i] = *res.Timing })
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
