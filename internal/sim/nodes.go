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
// caches, 16-byte blocks.
func NodeCountSweep(app string, nodeCounts []int, opts Options) ([]NodeCountRow, error) {
	opts = opts.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{4, 8, 16, 32, 64}
	}
	prof, err := workload.ProfileByName(app)
	if err != nil {
		return nil, err
	}
	for _, n := range nodeCounts {
		if n < 2 || n > memory.MaxNodes {
			return nil, fmt.Errorf("sim: node count %d out of range", n)
		}
	}

	// Each machine size has its own trace and placement; prepare them in
	// parallel (as apps, so streaming mode holds no trace in memory), then
	// run one cell per (node count, policy).
	preps := make([]*App, len(nodeCounts))
	err = runIndexed(opts.ctx(), len(nodeCounts), opts.workers(), func(i int) error {
		perNode := opts
		perNode.Nodes = nodeCounts[i]
		a, err := PrepareApp(prof.Name, perNode)
		if err != nil {
			return err
		}
		preps[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}

	pols := core.Policies()
	cfgs := make([]RunConfig, len(nodeCounts)*len(pols))
	for i := range cfgs {
		prep := preps[i/len(pols)]
		cfgs[i] = RunConfig{
			Engine:          EngineDirectory,
			Nodes:           nodeCounts[i/len(pols)],
			Shards:          opts.Shards,
			Cache:           opts.Cache,
			OpenSource:      prep.cellSource(nil, 0),
			PlacementPolicy: prep.Placement,
			policy:          &pols[i%len(pols)],
		}
	}
	msgs := make([]cost.Msgs, len(cfgs))
	err = runCells(opts, cfgs, nil,
		func(i int) string {
			return fmt.Sprintf("%s/%s (%d nodes)", app, pols[i%len(pols)].Name, nodeCounts[i/len(pols)])
		},
		func(i int, res *RunResult) { msgs[i] = res.Directory.Msgs })
	if err != nil {
		return nil, err
	}

	rows := make([]NodeCountRow, 0, len(nodeCounts))
	for ni, n := range nodeCounts {
		row := NodeCountRow{App: app, Nodes: n}
		base := msgs[ni*len(pols)]
		row.BaseMsgs = base
		for pi := 1; pi < len(pols); pi++ {
			row.Reductions = append(row.Reductions, cost.Reduction(base, msgs[ni*len(pols)+pi]))
		}
		rows = append(rows, row)
	}
	return rows, nil
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
