// Command bussim regenerates the paper's §4.3 bus-based results: snooping
// protocol transaction counts and the savings of the adaptive protocols
// over conventional MESI under the two bus cost models (model 1: every
// transaction costs one unit; model 2: operations requiring replies cost
// two).
//
// Usage:
//
//	bussim                       # all five apps at 64 KB and 1 MB caches
//	bussim -apps Water,MP3D -caches 65536
//	bussim -symmetry             # include the Sequent Symmetry baseline (§5)
//	bussim -trace mp3d.mtr       # replay a recorded trace file
//	bussim -parallelism 8        # cap the sweep worker pool (0 = all CPUs)
package main

import (
	"flag"
	"fmt"
	"os"

	"migratory/internal/cliutil"
	"migratory/internal/sim"
	"migratory/internal/snoop"
)

func main() {
	var (
		common   = cliutil.Register("bussim")
		prof     = cliutil.RegisterProfile("bussim")
		tele     = cliutil.RegisterTelemetry("bussim")
		caches   = flag.String("caches", "", "comma-separated per-node cache bytes (default: 65536,1048576)")
		symmetry = flag.Bool("symmetry", false, "include the non-adaptive Symmetry migrate-on-read baseline")
		format   = flag.String("format", "table", "output format: table, csv, or json")
	)
	flag.Parse()
	tele.SetupLogging()
	common.Validate()
	defer prof.Start()()

	ctx, stop := cliutil.SignalContext()
	defer stop()
	opts := common.Options(ctx)

	cacheSizes, err := cliutil.ParseCaches(*caches)
	if err != nil {
		cliutil.Usagef("bussim", "%v", err)
	}
	protocols := []snoop.Protocol{snoop.MESI, snoop.Adaptive, snoop.AdaptiveMigrateFirst}
	if *symmetry {
		protocols = append(protocols, snoop.Symmetry)
	}

	run := tele.Start(opts, *common.Trace, map[string]any{"caches": *caches, "symmetry": *symmetry})
	defer run.Close(nil)
	opts.Stats = run.Stats()

	apps, err := common.Apps(opts)
	if err != nil {
		cliutil.FatalRun(run, "bussim", "%v", err)
	}
	sw, err := sim.RunBusApps(apps, opts, cacheSizes, protocols)
	if err != nil {
		cliutil.FatalRun(run, "bussim", "%v", err)
	}
	run.Close(nil)

	switch *format {
	case "csv":
		fmt.Print(sw.CSV())
		return
	case "json":
		out, err := sw.JSON()
		if err != nil {
			cliutil.Fatal("bussim", "%v", err)
		}
		fmt.Print(out)
		return
	case "table":
		// fall through
	default:
		cliutil.Usagef("bussim", "unknown format %q", *format)
	}

	fmt.Println("Bus-based snooping protocols (§4.3): savings vs conventional MESI")
	fmt.Println()
	if err := sw.Render().Render(os.Stdout); err != nil {
		cliutil.Fatal("bussim", "%v", err)
	}
}
