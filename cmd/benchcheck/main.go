// Command benchcheck guards the hot-loop performance work: it compares the
// machine-readable benchmark rows that `make bench` writes to
// results/bench_sweep.json against the committed baseline in
// results/bench_baseline.json and exits non-zero when a key metric
// regresses beyond its tolerance.
//
// Each check is "benchmark:metric" or "benchmark:metric:tolerance" (a
// fraction; 0.2 = 20%). The comparison direction is inferred from the
// metric name: speedup-style metrics must not drop below baseline by more
// than the tolerance, everything else (ns, bytes, allocs) must not grow
// beyond it. Wall-clock metrics are noisy across machines, so the default
// checks lean on the self-normalizing speedup ratios and the deterministic
// allocation counts, with a wide tolerance on the raw ns rows.
//
// Usage:
//
//	benchcheck                          # default checks, default files
//	benchcheck -tolerance 0.1           # tighten the default tolerance
//	benchcheck -checks 'BenchmarkBatchedBus:speedup:0.25'
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"migratory/internal/cliutil"
	"migratory/internal/stats"
)

// defaultChecks are the key rows of results/bench_sweep.json: the batched
// hot-loop speedups and allocation footprints, the probe-overhead
// allocation guard, and the telemetry-disabled overhead guard (the
// off-mode hot path must stay within noise of the uninstrumented
// baseline, and the on/off ratio must stay near 1).
const defaultChecks = "BenchmarkBatchedTable2:speedup," +
	"BenchmarkBatchedTable2:batched_ns_per_op:0.60," +
	"BenchmarkBatchedTable2:batched_allocs_per_op," +
	// Bytes allocated per op track the engines' memory footprint (caches
	// and directories sized to what the trace touches). They repeat to
	// within 1%, so a 10% bound catches footprint growth that the
	// allocation count alone would miss.
	"BenchmarkBatchedTable2:batched_bytes_per_op:0.10," +
	"BenchmarkBatchedBus:speedup," +
	"BenchmarkBatchedBus:batched_ns_per_op:0.60," +
	"BenchmarkBatchedBus:batched_allocs_per_op," +
	"BenchmarkBatchedBus:batched_bytes_per_op:0.10," +
	"BenchmarkProbeOverhead/nil-probe:allocs_per_op," +
	"BenchmarkShardedTable2:speedup:0.60," +
	"BenchmarkShardedTable2:sequential_ns_per_op:0.60," +
	"BenchmarkShardedTable2:sharded8_ns_per_op:0.60," +
	"BenchmarkPrefetchMTR:prefetch_ns_per_op:0.60," +
	"BenchmarkParallelDecodeMTR:speedup:0.60," +
	"BenchmarkParallelDecodeMTR:indexed2_ns_per_op:0.60," +
	"BenchmarkTelemetryOverhead:off_ns_per_op:0.60," +
	"BenchmarkTelemetryOverhead:off_allocs_per_op," +
	"BenchmarkTelemetryOverhead:overhead_ratio:0.35," +
	// The segment cache's self-normalizing ratios: a warm cache must keep
	// beating re-decode by roughly its baseline margin, end-to-end and on
	// the decode-only drain.
	"BenchmarkSegmentCacheSweep:decode_speedup:0.35," +
	"BenchmarkSegmentCacheSweep:warm_ns_per_op:0.60," +
	// Structural guard (zero baseline): a warm sweep over a cache large
	// enough for the whole trace must never re-decode a segment; any miss
	// means keys, eviction, or pinning regressed.
	"BenchmarkSegmentCacheSweep:warm_misses_per_op," +
	"BenchmarkCohdHotTrace:speedup:0.35," +
	"BenchmarkCohdHotTrace:hot_ns_per_op:0.60," +
	"BenchmarkCohdHotTrace:hot_misses_per_op"

func fatal(format string, args ...any) {
	cliutil.Fatal("benchcheck", format, args...)
}

func load(path string) map[string]map[string]float64 {
	records, err := stats.ReadBenchJSON(path)
	if err != nil {
		fatal("%v", err)
	}
	out := make(map[string]map[string]float64, len(records))
	for _, r := range records {
		out[r.Name] = r.Metrics
	}
	return out
}

func main() {
	var (
		baselinePath = flag.String("baseline", "results/bench_baseline.json", "committed baseline rows")
		currentPath  = flag.String("current", "results/bench_sweep.json", "freshly measured rows (from `make bench`)")
		tolerance    = flag.Float64("tolerance", 0.20, "default allowed fractional drift per metric")
		checks       = flag.String("checks", defaultChecks, "comma-separated benchmark:metric[:tolerance] checks")
		tele         = cliutil.RegisterTelemetry("benchcheck")
	)
	flag.Parse()
	tele.SetupLogging()

	baseline := load(*baselinePath)
	current := load(*currentPath)

	failed := 0
	for _, spec := range strings.Split(*checks, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) < 2 || len(parts) > 3 {
			fatal("bad check %q (want benchmark:metric[:tolerance])", spec)
		}
		name, metric := parts[0], parts[1]
		tol := *tolerance
		if len(parts) == 3 {
			v, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || v < 0 {
				fatal("bad tolerance in %q", spec)
			}
			tol = v
		}
		base, ok := baseline[name][metric]
		if !ok {
			// A check ahead of its baseline row is not a regression: it
			// starts guarding once the baseline is (re)recorded.
			fmt.Printf("SKIP %s:%s (no baseline row)\n", name, metric)
			continue
		}
		cur, ok := current[name][metric]
		if !ok {
			fmt.Printf("FAIL %s:%s missing from %s (baseline %.4g)\n", name, metric, *currentPath, base)
			failed++
			continue
		}
		higherBetter := strings.Contains(metric, "speedup")
		bad := false
		if base != 0 {
			if higherBetter {
				bad = cur < base*(1-tol)
			} else {
				bad = cur > base*(1+tol)
			}
		} else {
			bad = cur != 0 && !higherBetter
		}
		verdict := "ok  "
		if bad {
			verdict = "FAIL"
			failed++
		}
		// The relative delta (current as a ratio of baseline) is the number
		// to read when a row fails: it is machine-independent where the raw
		// ns values are not.
		detail := fmt.Sprintf("baseline %.4g, current %.4g", base, cur)
		if base != 0 {
			detail += fmt.Sprintf(" (%.3fx of baseline, %+.1f%%)", cur/base, 100*(cur-base)/base)
		}
		fmt.Printf("%s %s:%s %s, tolerance %.0f%%\n", verdict, name, metric, detail, 100*tol)
	}
	if failed > 0 {
		fatal("%d metric(s) regressed beyond tolerance", failed)
	}
	fmt.Println("benchcheck: all metrics within tolerance")
}
