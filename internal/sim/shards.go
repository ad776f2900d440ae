package sim

import "migratory/internal/obs"

// shardProbes adapts an Options.Probes factory to the per-shard factory
// Run takes: every shard the engine builds gets its own probe built with
// the cell's identity, so probes never see concurrent events. The engine
// calls the factory once per shard in shard order, and each probe is
// appended to *built as it is made, so no shard count is resolved here.
// The factory is nil when the options carry none.
func shardProbes(opts Options, app, variant string, cacheBytes, blockSize int) (func(int) obs.Probe, *[]obs.Probe) {
	built := new([]obs.Probe)
	if opts.Probes == nil {
		return nil, built
	}
	return func(int) obs.Probe {
		p := opts.Probes(app, variant, cacheBytes, blockSize)
		*built = append(*built, p)
		return p
	}, built
}

// mergeShardProbes folds a sharded cell's per-shard probes into the single
// probe recorded on the Cell, preserving the sweep contract that per-cell
// MetricsProbes merge deterministically: when every attached probe is an
// *obs.MetricsProbe they merge in shard order (bit-identical to the probe a
// sequential run would have filled); a single attached probe is returned
// as-is; anything heterogeneous cannot be merged and yields nil.
func mergeShardProbes(probes []obs.Probe) obs.Probe {
	var attached []obs.Probe
	for _, p := range probes {
		if p != nil {
			attached = append(attached, p)
		}
	}
	switch len(attached) {
	case 0:
		return nil
	case 1:
		return attached[0]
	}
	mps := make([]*obs.MetricsProbe, 0, len(attached))
	for _, p := range attached {
		mp, ok := p.(*obs.MetricsProbe)
		if !ok {
			return nil
		}
		mps = append(mps, mp)
	}
	return obs.MergeMetrics(mps...)
}
