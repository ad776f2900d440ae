// Command migsim regenerates the paper's trace-driven directory-protocol
// experiments: Table 2 (message counts by cache size), Table 3 (message
// counts by block size with infinite caches), and the §4.1 weighted
// cost-ratio analysis.
//
// Usage:
//
//	migsim -table 2                 # Table 2 (all five apps, four protocols)
//	migsim -table 3 -apps MP3D      # Table 3, one app
//	migsim -table 2 -ratios         # add the 2:1 / 4:1 cost-ratio analysis
//	migsim -length 100000 -seed 7   # shorter traces, different seed
//	migsim -trace mp3d.mtr          # sweep over a recorded trace file
//	migsim -stream -length 5000000  # constant-memory streamed sweep
//	migsim -parallelism 8           # cap the sweep worker pool (0 = all CPUs)
package main

import (
	"flag"
	"fmt"
	"os"

	"migratory/internal/cliutil"
	"migratory/internal/sim"
)

func main() {
	var (
		common = cliutil.Register("migsim")
		prof   = cliutil.RegisterProfile("migsim")
		tele   = cliutil.RegisterTelemetry("migsim")
		table  = flag.Int("table", 2, "paper table to regenerate: 2 (cache sizes) or 3 (block sizes)")
		ratios = flag.Bool("ratios", false, "also print the cost-ratio analysis (§4.1)")
		format = flag.String("format", "table", "output format: table, csv, or json")
	)
	flag.Parse()
	tele.SetupLogging()
	common.Validate()
	defer prof.Start()()

	ctx, stop := cliutil.SignalContext()
	defer stop()
	opts := common.Options(ctx)

	sweep := sim.Table2Apps
	if *table == 3 {
		sweep = sim.Table3Apps
	} else if *table != 2 {
		cliutil.Usagef("migsim", "unknown table %d (want 2 or 3)", *table)
	}

	run := tele.Start(opts, *common.Trace, map[string]any{"table": *table})
	defer run.Close(nil)
	opts.Stats = run.Stats()

	apps, err := common.Apps(opts)
	if err != nil {
		cliutil.FatalRun(run, "migsim", "%v", err)
	}
	sw, err := sweep(apps, opts)
	if err != nil {
		cliutil.FatalRun(run, "migsim", "%v", err)
	}
	run.Close(nil)

	switch *format {
	case "csv":
		fmt.Print(sw.CSV())
		return
	case "json":
		out, err := sw.JSON()
		if err != nil {
			cliutil.Fatal("migsim", "%v", err)
		}
		fmt.Print(out)
		return
	case "table":
		// fall through
	default:
		cliutil.Usagef("migsim", "unknown format %q", *format)
	}

	title := "Table 2: message counts (thousands) by cache size, application, and protocol (16-byte blocks)"
	if *table == 3 {
		title = "Table 3: message counts (thousands) by block size, application, and protocol (infinite caches)"
	}
	fmt.Println(title)
	fmt.Println()
	if err := sw.Render().Render(os.Stdout); err != nil {
		cliutil.Fatal("migsim", "%v", err)
	}
	if *ratios {
		fmt.Println()
		fmt.Println("Cost-ratio analysis (§4.1): % reduction under data:short message cost ratios")
		fmt.Println()
		if err := sw.CostRatioTable().Render(os.Stdout); err != nil {
			cliutil.Fatal("migsim", "%v", err)
		}
	}
}
