// Command paper regenerates the complete evaluation of Cox & Fowler (ISCA
// 1993) in one run and emits a self-contained markdown report: Tables 2
// and 3, the §4.1 cost-ratio analysis, the §4.2 execution-driven study,
// the §4.3 bus results, and this repository's extensions (classifier
// accuracy, the Stenström and update-once comparisons, the off-line oracle
// bound, and the machine-size sensitivity sweep).
//
// Usage:
//
//	go run ./cmd/paper > report.md          # full-length traces (~minutes)
//	go run ./cmd/paper -length 100000       # quick pass
//	go run ./cmd/paper -trace mp3d.mtr      # evaluate a recorded trace file
//	go run ./cmd/paper -stream              # constant-memory streamed sweeps
//	go run ./cmd/paper -parallelism 8       # cap the sweep worker pool
//
// Sweeps fan independent simulation cells out across -parallelism workers
// (0 = all CPUs); results are bit-identical regardless of the setting.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"slices"

	"migratory/internal/cliutil"
	"migratory/internal/core"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
)

// run is the command's telemetry session; check funnels failures through
// it so an aborted report still leaves a manifest.
var run *telemetry.Run

func main() {
	common := cliutil.Register("paper")
	prof := cliutil.RegisterProfile("paper")
	tele := cliutil.RegisterTelemetry("paper")
	flag.Parse()
	tele.SetupLogging()
	common.Validate()
	defer prof.Start()()

	ctx, stop := cliutil.SignalContext()
	defer stop()
	opts := common.Options(ctx)
	traced := *common.Trace != ""

	run = tele.Start(opts, *common.Trace, nil)
	defer run.Close(nil)
	opts.Stats = run.Stats()

	fmt.Println("# Adaptive Cache Coherency for Detecting Migratory Shared Data — regenerated evaluation")
	fmt.Println()
	if traced {
		fmt.Printf("Configuration: %d nodes, trace file %s.\n\n", opts.Nodes, *common.Trace)
	} else {
		fmt.Printf("Configuration: %d nodes, seed %d, trace length %s.\n\n",
			opts.Nodes, opts.Seed, lengthDesc(opts.Length))
	}

	// Every section below replays the same prepared apps: one generation
	// (or trace profiling) and placement pass per app, after the header so
	// the report's first line does not wait on it.
	apps, err := common.Apps(opts)
	check(err)

	section("Table 2 — message counts by cache size (16-byte blocks)")
	sw2, err := sim.Table2Apps(apps, opts)
	check(err)
	code(sw2.Render().String())

	section("Table 3 — message counts by block size (infinite caches)")
	sw3, err := sim.Table3Apps(apps, opts)
	check(err)
	code(sw3.Render().String())

	section("§4.1 — weighted cost-ratio analysis (from the Table 3 sweep)")
	code(sw3.CostRatioTable().String())

	section("§4.2 — execution-driven simulation (DASH-like, round-robin placement)")
	// The timing model refuses to shard (the simulated bus serializes every
	// transaction globally), so this section always runs sequentially even
	// when -shards accelerates the untimed sweeps above.
	execOpts := opts
	execOpts.Shards = 1
	execApps := apps
	if !traced {
		execApps, err = appsNamed(apps, sim.ExecApps, opts)
		check(err)
	}
	rows, err := sim.ExecutionTimeApps(execApps, execOpts, core.Basic, 0)
	check(err)
	code(sim.RenderExec(rows, core.Basic).String())

	section("§4.3 — bus-based snooping protocols (incl. §5 baselines)")
	protocols := []snoop.Protocol{
		snoop.MESI, snoop.Adaptive, snoop.AdaptiveMigrateFirst, snoop.Symmetry, snoop.UpdateOnce,
	}
	bus, err := sim.RunBusApps(apps, opts, nil, protocols)
	check(err)
	code(bus.Render().String())

	section("Extension — on-line detection vs off-line ground truth")
	acc, err := sim.ClassifierAccuracyApps(apps, opts, 0)
	check(err)
	code(sim.RenderAccuracy(acc).String())

	section("Extension — machine-size sensitivity (aggressive protocol)")
	if traced {
		fmt.Println("Skipped: the machine-size sweep regenerates each workload per node")
		fmt.Println("count, which a fixed recorded trace cannot provide.")
		fmt.Println()
	} else {
		// Only MP3D's and Water's prepared apps live on: the sweep's
		// 16-node cells are their remembered Table 3 cells. The other
		// apps are dead from here on. Collect them now: the sweep prepares
		// a trace per other machine size, and those would otherwise pile
		// on top of the dead apps until the heap reaches the goal the apps
		// set, which made this the run's peak RSS.
		names := []string{"MP3D", "Water"}
		var keep []*sim.App
		for _, app := range apps {
			if slices.Contains(names, app.Name) {
				keep = append(keep, app)
			}
		}
		runtime.GC()
		sweeps, err := sim.NodeCountSweepApps(names, nil, opts, keep)
		check(err)
		for _, rows := range sweeps {
			code(sim.RenderNodeCount(rows).String())
		}
	}

	fmt.Println("Generated by cmd/paper; see EXPERIMENTS.md for the measured-versus-published discussion.")
	run.Close(nil)
}

// appsNamed returns the apps called names, in that order, reusing the
// prepared ones and preparing any that -apps left out.
func appsNamed(prepared []*sim.App, names []string, opts sim.Options) ([]*sim.App, error) {
	byName := make(map[string]*sim.App, len(prepared))
	for _, app := range prepared {
		byName[app.Name] = app
	}
	var missing []string
	for _, name := range names {
		if byName[name] == nil {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		opts.Apps = missing
		extra, err := sim.PrepareApps(opts)
		if err != nil {
			return nil, err
		}
		for _, app := range extra {
			byName[app.Name] = app
		}
	}
	out := make([]*sim.App, len(names))
	for i, name := range names {
		out[i] = byName[name]
	}
	return out, nil
}

func lengthDesc(n int) string {
	if n == 0 {
		return "per-app defaults"
	}
	return fmt.Sprintf("%d accesses", n)
}

func section(title string) {
	fmt.Printf("## %s\n\n", title)
}

func code(body string) {
	fmt.Println("```")
	fmt.Print(body)
	fmt.Println("```")
	fmt.Println()
}

func check(err error) {
	if err != nil {
		cliutil.FatalRun(run, "paper", "%v", err)
	}
}
