// Command classify evaluates the on-line migratory detection itself: it
// scores each adaptive protocol's classifications against the off-line
// ground truth (precision/recall over shared blocks), and prints the
// Weber–Gupta style invalidation-pattern histogram (the paper's reference
// [23]) that motivates the whole idea — under migratory sharing, most
// ownership acquisitions invalidate exactly one remote copy.
//
// Usage:
//
//	classify                 # all five applications
//	classify -apps MP3D      # one application
//	classify -cache 16384    # score under replacement pressure
//	classify -trace mp3d.mtr # score a recorded trace file
//	classify -parallelism 8  # cap the sweep worker pool (0 = all CPUs)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"migratory/internal/cliutil"
	"migratory/internal/sim"
	"migratory/internal/workload"
)

func main() {
	var (
		common = cliutil.Register("classify")
		prof   = cliutil.RegisterProfile("classify")
		tele   = cliutil.RegisterTelemetry("classify")
		cache  = flag.Int("cache", 0, "per-node cache bytes (0 = infinite)")
	)
	flag.Parse()
	tele.SetupLogging()
	common.Validate()
	defer prof.Start()()

	ctx, stop := cliutil.SignalContext()
	defer stop()
	opts := common.Options(ctx)
	if len(opts.Apps) == 0 {
		for _, p := range workload.Profiles() {
			opts.Apps = append(opts.Apps, p.Name)
		}
	}

	run := tele.Start(opts, *common.Trace, map[string]any{"cache": *cache})
	defer run.Close(nil)
	opts.Stats = run.Stats()

	// One prepared app per input: the -trace file, or each built-in profile.
	// The same apps drive both the accuracy scoring and the histogram, so a
	// trace is generated (or a file profiled) once per app.
	apps, err := common.Apps(opts)
	if err != nil {
		cliutil.FatalRun(run, "classify", "%v", err)
	}

	fmt.Println("On-line detection vs off-line ground truth (shared blocks only):")
	fmt.Println()
	all, err := sim.ClassifierAccuracyApps(apps, opts, *cache)
	if err != nil {
		cliutil.FatalRun(run, "classify", "%v", err)
	}
	if err := sim.RenderAccuracy(all).Render(os.Stdout); err != nil {
		cliutil.Fatal("classify", "%v", err)
	}

	fmt.Println()
	fmt.Println("Invalidation-pattern histogram (conventional protocol): remote copies")
	fmt.Println("invalidated per ownership acquisition — the Weber–Gupta motivation for")
	fmt.Println("migratory detection.")
	fmt.Println()
	hists, err := sim.InvalidationHistograms(apps, opts, *cache)
	if err != nil {
		cliutil.FatalRun(run, "classify", "%v", err)
	}
	for i, app := range apps {
		hist := hists[i]
		sizes := make([]int, 0, len(hist))
		var total uint64
		for sz, c := range hist {
			sizes = append(sizes, sz)
			total += c
		}
		sort.Ints(sizes)
		fmt.Printf("%-12s", app.Name)
		for _, sz := range sizes {
			fmt.Printf("  %d:%5.1f%%", sz, 100*float64(hist[sz])/float64(total))
		}
		fmt.Println()
	}
}
