package sim

import (
	"fmt"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/memory"
	"migratory/internal/stats"
	"migratory/internal/workload"
)

// NodeCountRow is one machine-size point of the scalability sweep.
type NodeCountRow struct {
	App   string
	Nodes int
	// Reductions per adaptive policy, ordered like core.Policies()[1:].
	Reductions []float64
	BaseMsgs   cost.Msgs
}

// NodeCountSweep measures how the adaptive protocols' message reduction
// scales with machine size. The paper simulates sixteen processors
// throughout; this sweep is the natural sensitivity study (the migratory
// pattern itself is machine-size independent — one processor at a time —
// so the benefit should hold from small to large machines). Infinite
// caches, 16-byte blocks. It is NodeCountSweepApps for one app, with no
// prepared apps.
func NodeCountSweep(app string, nodeCounts []int, opts Options) ([]NodeCountRow, error) {
	rows, err := NodeCountSweepApps([]string{app}, nodeCounts, opts, nil)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// NodeCountSweepApps runs the machine-size sweep for each named app (nil
// nodeCounts = 4, 8, 16, 32 and 64 nodes) and returns each app's rows, in
// the order of names. prepared holds apps the caller prepared with opts,
// such as the ones its Table 3 sweep ran over.
//
// One pool (Options.each) runs every (app, node count) unit, and each unit
// spends the share of the Parallelism × Shards budget it is granted on its
// cells. A unit at opts.Nodes takes the prepared app of its name, so its
// policy cells are answered from that app's memo when an earlier sweep ran
// them (runCells); any other unit prepares its own app, runs its cells and
// drops the app, so the sweep holds at most one such app per unit running
// at once.
func NodeCountSweepApps(names []string, nodeCounts []int, opts Options, prepared []*App) ([][]NodeCountRow, error) {
	opts = opts.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{4, 8, 16, 32, 64}
	}
	for _, name := range names {
		if _, err := workload.ProfileByName(name); err != nil {
			return nil, err
		}
	}
	for _, n := range nodeCounts {
		if n < 2 || n > memory.MaxNodes {
			return nil, fmt.Errorf("sim: node count %d out of range", n)
		}
	}
	byName := make(map[string]*App, len(prepared))
	for _, app := range prepared {
		byName[app.Name] = app
	}

	pols := core.Policies()
	nn, np := len(nodeCounts), len(pols)
	msgs := make([]cost.Msgs, len(names)*nn*np)
	err := opts.each(len(names)*nn, func(u, shards int) error {
		name, n := names[u/nn], nodeCounts[u%nn]
		app := byName[name]
		if app == nil || n != opts.Nodes {
			perNode := opts
			perNode.Nodes = n
			var err error
			if app, err = PrepareApp(name, perNode); err != nil {
				return err
			}
		}
		cfgs := make([]RunConfig, np)
		apps := make([]*App, np)
		for pi := range pols {
			apps[pi] = app
			cfgs[pi] = app.bind(RunConfig{
				Engine: EngineDirectory,
				Nodes:  n,
				Shards: opts.Shards,
				Cache:  opts.Cache,
				policy: &pols[pi],
			})
		}
		unitOpts := opts
		unitOpts.Parallelism, unitOpts.Shards = 1, shards
		return runCells(unitOpts, cfgs, apps,
			func(pi int) string { return fmt.Sprintf("%s/%s (%d nodes)", name, pols[pi].Name, n) },
			func(pi int, res *RunResult) { msgs[u*np+pi] = res.Directory.Msgs })
	})
	if err != nil {
		return nil, err
	}

	out := make([][]NodeCountRow, len(names))
	for ai, name := range names {
		for ni, n := range nodeCounts {
			unit := msgs[(ai*nn+ni)*np : (ai*nn+ni+1)*np]
			row := NodeCountRow{App: name, Nodes: n, BaseMsgs: unit[0]}
			for _, m := range unit[1:] {
				row.Reductions = append(row.Reductions, cost.Reduction(unit[0], m))
			}
			out[ai] = append(out[ai], row)
		}
	}
	return out, nil
}

// RenderNodeCount formats the scalability sweep.
func RenderNodeCount(rows []NodeCountRow) *stats.Table {
	tab := &stats.Table{
		Header: []string{"app", "nodes", "conv msgs", "conservative", "basic", "aggressive"},
	}
	for _, r := range rows {
		cells := []string{r.App, fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.BaseMsgs.Total())}
		for _, red := range r.Reductions {
			cells = append(cells, stats.Percent(red)+"%")
		}
		tab.Add(cells...)
	}
	return tab
}
