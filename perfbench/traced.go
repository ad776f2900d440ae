package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// cohdSeconds is the length of the traced run's cohd load: 300 requests
// at 20 requests/s, 15 of them beyond p95.
const cohdSeconds = 15 * time.Second

// perLayer lists the per-layer metrics in BENCHMARK.json order. Every
// traced run reports every one of them.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ns_per_access", "ns"},
	{"placement.profile_ns_per_access", "ns"},
	{"trace.write_ns_per_access", "ns"},
	{"trace.decode_cold_ns_per_access", "ns"},
	{"trace.decode_warm_ns_per_access", "ns"},
	{"trace.segcache_hit_ratio", "ratio"},
	{"trace.segcache_misses", "count"},
	{"trace.segcache_peak_pinned_mb", "MB"},
	{"trace.demux_ns_per_access", "ns"},
	{"trace.demux_stall_ms", "ms"},
	{"directory.ns_per_access", "ns"},
	{"directory.sharded2_ns_per_access", "ns"},
	{"snoop.ns_per_access", "ns"},
	{"timing.ns_per_access", "ns"},
	{"directory.msgs", "count"},
	{"directory.migrations", "count"},
	{"telemetry.transitions", "count"},
	{"sim.cell_p50_ms", "ms"},
	{"sim.pool_efficiency", "ratio"},
	{"sim.run_overhead_ms", "ms"},
	{"sim.result_encode_us", "us"},
	{"stats.render_ms", "ms"},
	{"server.run_p50_ms", "ms"},
	{"server.http_overhead_p50_ms", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"cohd.lat_p50_ms", "ms"},
	{"cohd.lat_p95_ms", "ms"},
	{"cohd.cpu_ms_per_req", "ms"},
	{"cohd.peak_rss_mb", "MB"},
	{"bench.gen_late_p95_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// tracedRun is the traced run, kept apart from the timed runs. It runs the
// workload for half the run untraced and half traced (their difference is
// the tracing overhead), one traced mtr-replay op for the segment cache
// unless the workload already made one, an open-loop cohd load for the
// server layer, and the in-process layer suite. Spans are written out when
// the run ends.
func tracedRun(ctx context.Context, cfg *config) (*result, error) {
	ws := workloadSeed(cfg.seed)
	t := newTracer()
	half := max(cfg.seconds/2, time.Second)
	res := &result{Metrics: map[string]metric{}}
	account := func(p *pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}

	run := workloads[cfg.workload]
	base, err := run(ctx, cfg, half, nil)
	if err != nil {
		return nil, err
	}
	account(base)
	traced, err := run(ctx, cfg, half, t)
	if err != nil {
		return nil, err
	}
	account(traced)
	m := map[string]float64{
		"bench.trace_overhead_pct": 100 * (traced.metrics["wall_s"]/base.metrics["wall_s"] - 1),
	}

	mtr := traced.mtrOp
	if mtr == nil {
		p, err := mtrReplay(ctx, cfg, 0, t)
		if err != nil {
			return nil, err
		}
		account(p)
		mtr = p.mtrOp
	}
	if mtr == nil || mtr.cache == nil {
		return nil, errors.New("traced run: no successful mtr-replay op to read the segment cache from")
	}
	cohd, p, err := cohdLoad(ctx, cfg, cohdSeconds, t)
	if err != nil {
		return nil, err
	}
	account(p)

	layers, c, err := layerSuite(ctx, cfg, t, ws)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	c.SegcacheMisses = mtr.cache.Misses
	res.Attempted++
	if want := cfg.goldens.Counts[ws]; c != want {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: exact counts %+v, golden %+v\n", c, want)
	}
	m["directory.msgs"] = float64(c.DirectoryMsgs)
	m["directory.migrations"] = float64(c.DirectoryMigrations)
	m["telemetry.transitions"] = float64(c.Transitions)
	m["trace.segcache_misses"] = float64(c.SegcacheMisses)
	m["trace.segcache_hit_ratio"] = float64(mtr.cache.Hits) / float64(mtr.cache.Hits+mtr.cache.Misses)
	m["trace.segcache_peak_pinned_mb"] = float64(mtr.cache.PeakPinnedBytes) / (1 << 20)
	serverMetrics(cohd, m)

	res.Correct = res.Failed == 0
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			return nil, fmt.Errorf("traced run: metric %s not measured", pl.name)
		}
		res.Metrics[pl.name] = metric{Value: finite(v), Unit: pl.unit}
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return res, nil
}

// serverMetrics derives the server, cohd and generator metrics from the
// cohd load: each request's timings and job snapshot, cohd's CPU and peak
// RSS, and the /metrics scrape taken after the load. Latency counts from
// each request's due time; a failed request counts as infinite.
func serverMetrics(p *cohdPass, m map[string]float64) {
	var lat, run, overhead, hit, miss, late []float64
	rejected := 0
	for _, r := range p.reqs {
		switch r.code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			rejected++
		}
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(r.done.Sub(r.due)))
		client := ms(r.done.Sub(r.sent))
		overhead = append(overhead, client-ms(r.finished.Sub(r.submitted)))
		switch {
		case r.cacheHit:
			hit = append(hit, client)
		case r.kind != "replay":
			miss = append(miss, client)
		}
		if !r.started.IsZero() {
			run = append(run, ms(r.finished.Sub(r.started)))
		}
	}
	hits, misses := p.scrape["cohd_cache_hits_total"], p.scrape["cohd_cache_misses_total"]
	m["server.run_p50_ms"] = median(run)
	m["server.http_overhead_p50_ms"] = median(overhead)
	m["server.hit_p50_ms"] = median(hit)
	m["server.miss_p50_ms"] = median(miss)
	m["server.cache_hit_ratio"] = hits / (hits + misses)
	m["server.rejected"] = float64(rejected)
	m["cohd.lat_p50_ms"] = quantile(lat, 0.50)
	m["cohd.lat_p95_ms"] = quantile(lat, 0.95)
	m["cohd.cpu_ms_per_req"] = ms(p.cpu) / float64(len(p.reqs))
	m["cohd.peak_rss_mb"] = float64(p.hwm) / (1 << 20)
	m["bench.gen_late_p95_ms"] = quantile(late, 0.95)
}
