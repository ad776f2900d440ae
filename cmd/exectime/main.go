// Command exectime regenerates the paper's §4.2 execution-driven results:
// the parallel execution-time reduction of the basic adaptive protocol over
// the conventional protocol on a DASH-like CC-NUMA machine with round-robin
// page placement.
//
// Usage:
//
//	exectime                      # Cholesky, MP3D, Water with basic
//	exectime -policy aggressive   # a different adaptive variant
//	exectime -apps MP3D -cache 262144
//	exectime -trace mp3d.mtr      # time a recorded trace file
//	exectime -parallelism 8       # cap the sweep worker pool (0 = all CPUs)
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
		common = cliutil.Register("exectime")
		prof   = cliutil.RegisterProfile("exectime")
		tele   = cliutil.RegisterTelemetry("exectime")
		policy = flag.String("policy", "basic", "adaptive policy to compare against conventional")
		cache  = flag.Int("cache", 0, "per-node cache bytes (0 = 64 KB)")
	)
	flag.Parse()
	tele.SetupLogging()
	common.Validate()
	defer prof.Start()()

	ctx, stop := cliutil.SignalContext()
	defer stop()
	pol := cliutil.PolicyArg("exectime", *policy)
	opts := common.Options(ctx)
	if len(opts.Apps) == 0 {
		opts.Apps = sim.ExecApps
	}

	run := tele.Start(opts, *common.Trace, map[string]any{"policy": *policy, "cache": *cache})
	defer run.Close(nil)
	opts.Stats = run.Stats()

	apps, err := common.Apps(opts)
	if err != nil {
		cliutil.FatalRun(run, "exectime", "%v", err)
	}
	rows, err := sim.ExecutionTimeApps(apps, opts, pol, *cache)
	if err != nil {
		cliutil.FatalRun(run, "exectime", "%v", err)
	}
	run.Close(nil)
	fmt.Println("Execution-driven simulation (§4.2): DASH-like latencies, round-robin placement")
	fmt.Println()
	if err := sim.RenderExec(rows, pol).Render(os.Stdout); err != nil {
		cliutil.Fatal("exectime", "%v", err)
	}
}
