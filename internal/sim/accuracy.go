package sim

import (
	"fmt"

	"migratory/internal/core"
	"migratory/internal/memory"
	"migratory/internal/stats"
	"migratory/internal/trace"
)

// Accuracy reports how well a protocol's on-line migratory detection
// matches the off-line ground truth of trace.ClassifyBlocks. "Positive"
// means the block behaves migratory over the whole trace.
type Accuracy struct {
	App    string
	Policy core.Policy

	TruePositive  int // detected, and truly migratory
	FalsePositive int // detected, but not migratory over the whole trace
	FalseNegative int // truly migratory, never detected
	TrueNegative  int // correctly left alone

	MigratoryBlocks int // ground-truth positives
	TotalBlocks     int
}

// Precision is TP / (TP + FP); 0 when nothing was detected.
func (a Accuracy) Precision() float64 {
	d := a.TruePositive + a.FalsePositive
	if d == 0 {
		return 0
	}
	return float64(a.TruePositive) / float64(d)
}

// Recall is TP / (TP + FN); 0 when there were no positives.
func (a Accuracy) Recall() float64 {
	d := a.TruePositive + a.FalseNegative
	if d == 0 {
		return 0
	}
	return float64(a.TruePositive) / float64(d)
}

// ClassifierAccuracy runs one application under each policy and scores the
// detection against the off-line ground truth. Only blocks that are shared
// at all (touched by more than one node) enter the scoring: the detection
// rules never see single-node blocks do anything detectable, and the paper
// excludes private data from its traces anyway. cacheBytes 0 = infinite
// (the cleanest setting for judging the rules themselves).
func ClassifierAccuracy(app string, opts Options, cacheBytes int) ([]Accuracy, error) {
	opts = opts.withDefaults()
	prepared, err := PrepareApp(app, opts)
	if err != nil {
		return nil, err
	}
	return ClassifierAccuracyApp(prepared, opts, cacheBytes)
}

// ClassifierAccuracyApp is ClassifierAccuracy over a caller-prepared app
// (an external trace wrapped with NewApp or NewSourceApp): the one-app case
// of ClassifierAccuracyApps.
func ClassifierAccuracyApp(prepared *App, opts Options, cacheBytes int) ([]Accuracy, error) {
	return ClassifierAccuracyApps([]*App{prepared}, opts, cacheBytes)
}

// ClassifierAccuracyApps scores every adaptive policy on every prepared
// app, returning the rows app by app in policy order. The off-line ground
// truths come from one streaming pass per app, fanned out over the
// sweep's goroutine budget (Options.each); then every app's policy cells
// run through one pool, so no app waits behind another's barrier. The
// cells are shared like the Table 3 sweep's (runCells): a cell an earlier
// sweep ran over the same app is answered from the verdicts the app kept.
func ClassifierAccuracyApps(apps []*App, opts Options, cacheBytes int) ([]Accuracy, error) {
	opts = opts.withDefaults()
	truths := make([]map[memory.BlockID]trace.BlockPattern, len(apps))
	err := opts.each(len(apps), func(i, _ int) error {
		// The ground-truth pass opens its source the way a 16-byte
		// directory cell's run does, on the widest machine, since no
		// engine checks its nodes: a folded app's kept accesses, whose
		// folded writes the block histories credit
		// (trace.ClassifyBlocksSource).
		src, err := apps[i].bind(RunConfig{Engine: EngineDirectory, Nodes: memory.MaxNodes, Cache: opts.Cache}).openSource()
		if err != nil {
			return err
		}
		truth, err := trace.ClassifyBlocksSource(src, memory.MustGeometry(16, PageSize))
		cerr := src.Close()
		if err != nil {
			return err
		}
		truths[i] = truth
		return cerr
	})
	if err != nil {
		return nil, err
	}

	var adaptive []core.Policy
	for _, pol := range opts.Policies {
		if pol.Adaptive {
			adaptive = append(adaptive, pol)
		}
	}
	np := len(adaptive)
	cfgs := make([]RunConfig, len(apps)*np)
	cellApps := make([]*App, len(cfgs))
	for i := range cfgs {
		app := apps[i/np]
		cellApps[i] = app
		cfgs[i] = app.bind(RunConfig{
			Engine:     EngineDirectory,
			Nodes:      opts.Nodes,
			CacheBytes: cacheBytes,
			Shards:     opts.Shards,
			Cache:      opts.Cache,
			policy:     &adaptive[i%np],
		})
	}
	out := make([]Accuracy, len(cfgs))
	err = runCells(opts, cfgs, cellApps,
		func(i int) string { return apps[i/np].Name + "/" + adaptive[i%np].Name },
		func(i int, res *RunResult) {
			out[i] = score(apps[i/np].Name, adaptive[i%np], truths[i/np], res.EverMigratory())
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InvalidationHistograms runs the conventional protocol over every
// prepared app and returns each run's Weber–Gupta histogram
// (RunResult.InvalidationHistogram), in app order. The cells run through
// one pool, unshared.
func InvalidationHistograms(apps []*App, opts Options, cacheBytes int) ([]map[int]uint64, error) {
	opts = opts.withDefaults()
	conventional := core.Conventional
	cfgs := make([]RunConfig, len(apps))
	for i, app := range apps {
		cfgs[i] = app.bind(RunConfig{
			Engine:     EngineDirectory,
			Nodes:      opts.Nodes,
			CacheBytes: cacheBytes,
			Shards:     opts.Shards,
			Stats:      opts.Stats,
			Cache:      opts.Cache,
			policy:     &conventional,
		})
	}
	out := make([]map[int]uint64, len(apps))
	err := runCells(opts, cfgs, nil,
		func(i int) string { return apps[i].Name + "/" + conventional.Name },
		func(i int, res *RunResult) { out[i] = res.InvalidationHistogram() })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// score tallies one policy's on-line verdicts against the off-line ground
// truth over the shared blocks.
func score(app string, pol core.Policy, truth map[memory.BlockID]trace.BlockPattern, detected map[memory.BlockID]bool) Accuracy {
	acc := Accuracy{App: app, Policy: pol}
	for b, pattern := range truth {
		if pattern == trace.PatternPrivate {
			continue
		}
		acc.TotalBlocks++
		positive := pattern == trace.PatternMigratory
		if positive {
			acc.MigratoryBlocks++
		}
		switch {
		case positive && detected[b]:
			acc.TruePositive++
		case positive && !detected[b]:
			acc.FalseNegative++
		case !positive && detected[b]:
			acc.FalsePositive++
		default:
			acc.TrueNegative++
		}
	}
	return acc
}

// RenderAccuracy formats the scores.
func RenderAccuracy(rows []Accuracy) *stats.Table {
	tab := &stats.Table{
		Header: []string{"app", "policy", "truth-migratory", "detected TP", "FP", "FN", "precision", "recall"},
	}
	for _, a := range rows {
		tab.Add(a.App, a.Policy.Name,
			fmt.Sprintf("%d/%d", a.MigratoryBlocks, a.TotalBlocks),
			fmt.Sprintf("%d", a.TruePositive),
			fmt.Sprintf("%d", a.FalsePositive),
			fmt.Sprintf("%d", a.FalseNegative),
			stats.Percent(100*a.Precision())+"%",
			stats.Percent(100*a.Recall())+"%")
	}
	return tab
}
