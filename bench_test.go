// Benchmarks regenerating every table and figure of the paper's evaluation
// (the experiment index lives in DESIGN.md §3; measured-versus-published
// values are recorded in EXPERIMENTS.md). Each benchmark reports the
// paper's headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the study end to end. The workloads here are shortened for
// benchmark turnaround; the cmd/ tools run the full-length versions.
package migratory

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/stats"
	"migratory/internal/telemetry"
	"migratory/internal/timing"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

const benchLength = 120_000

var benchGeom = memory.MustGeometry(16, 4096)

func benchOpts(apps ...string) sim.Options {
	return sim.Options{Nodes: 16, Seed: 1993, Length: benchLength, Apps: apps}
}

// benchTrace caches generated traces across benchmark iterations.
var benchTraces = map[string][]trace.Access{}

func benchTrace(b *testing.B, app string) []trace.Access {
	b.Helper()
	if t, ok := benchTraces[app]; ok {
		return t
	}
	prof, err := workload.ProfileByName(app)
	if err != nil {
		b.Fatal(err)
	}
	t, err := workload.Generate(prof, 16, 1993, benchLength)
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[app] = t
	return t
}

// BenchmarkTable1CostModel exercises E1: the Table 1 message accounting.
func BenchmarkTable1CostModel(b *testing.B) {
	var sink cost.Msgs
	for i := 0; i < b.N; i++ {
		for op := cost.ReadMiss; op <= cost.WriteBack; op++ {
			for dc := 0; dc < 4; dc++ {
				sink = sink.Add(cost.Charge(op, i%2 == 0, i%3 == 0, dc))
			}
		}
	}
	_ = sink
}

// BenchmarkFigure3Classifier exercises E3: the directory classification
// engine on the canonical migratory event sequence.
func BenchmarkFigure3Classifier(b *testing.B) {
	for _, p := range core.Policies() {
		b.Run(p.Name, func(b *testing.B) {
			c := core.NewClassifier(p)
			st := c.NewState()
			for i := 0; i < b.N; i++ {
				c.ReadMiss(&st, true)
				c.WriteHit(&st, memory.NodeID(i%16), true)
			}
		})
	}
}

// BenchmarkFigure2Snoop exercises E2: the adaptive snooping FSM on a
// migratory access stream.
func BenchmarkFigure2Snoop(b *testing.B) {
	var accs []trace.Access
	for round := 0; round < 64; round++ {
		for n := memory.NodeID(0); n < 4; n++ {
			accs = append(accs,
				trace.Access{Node: n, Kind: trace.Read, Addr: memory.Addr(round % 8 * 16)},
				trace.Access{Node: n, Kind: trace.Write, Addr: memory.Addr(round % 8 * 16)},
			)
		}
	}
	for _, p := range []snoop.Protocol{snoop.MESI, snoop.Adaptive} {
		b.Run(p.String(), func(b *testing.B) {
			sys, err := snoop.New(snoop.Config{Nodes: 16, Geometry: benchGeom, Protocol: p})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Run(accs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sys.Counts().Total())/float64(b.N), "bus-txns/run")
		})
	}
}

// BenchmarkTable2 regenerates E4 (one sub-benchmark per application at the
// paper's 64 KB midpoint), reporting the percentage message reduction of
// each adaptive protocol over conventional.
func BenchmarkTable2(b *testing.B) {
	for _, prof := range workload.Profiles() {
		app := prof.Name
		b.Run(app, func(b *testing.B) {
			accs := benchTrace(b, app)
			pl := placement.UsageBased(accs, benchGeom, 16)
			var reductions [3]float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, pol := range core.Policies() {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10,
						Policy: pol, Placement: pl,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
					} else {
						reductions[pi-1] = cost.Reduction(base, sys.Messages())
					}
				}
			}
			b.ReportMetric(reductions[0], "conservative-%red")
			b.ReportMetric(reductions[1], "basic-%red")
			b.ReportMetric(reductions[2], "aggressive-%red")
		})
	}
}

// BenchmarkTable2CacheSweep reports the aggressive protocol's reduction at
// each of Table 2's cache sizes for one strongly cache-sensitive
// application, exhibiting the paper's cache-size trend.
func BenchmarkTable2CacheSweep(b *testing.B) {
	accs := benchTrace(b, "Water")
	pl := placement.UsageBased(accs, benchGeom, 16)
	for _, cacheBytes := range sim.Table2CacheSizes {
		b.Run(fmt.Sprintf("%dK", cacheBytes>>10), func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, pol := range []core.Policy{core.Conventional, core.Aggressive} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, CacheBytes: cacheBytes,
						Policy: pol, Placement: pl,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
					} else {
						red = cost.Reduction(base, sys.Messages())
					}
				}
			}
			b.ReportMetric(red, "aggressive-%red")
		})
	}
}

// BenchmarkTable3 regenerates E5: block-size sweep with infinite caches,
// reporting the aggressive reduction per block size for each application.
func BenchmarkTable3(b *testing.B) {
	for _, prof := range workload.Profiles() {
		app := prof.Name
		b.Run(app, func(b *testing.B) {
			accs := benchTrace(b, app)
			pl := placement.UsageBased(accs, benchGeom, 16)
			metrics := map[int]float64{}
			for i := 0; i < b.N; i++ {
				for _, bs := range sim.Table3BlockSizes {
					geom := memory.MustGeometry(bs, 4096)
					var base cost.Msgs
					for pi, pol := range []core.Policy{core.Conventional, core.Aggressive} {
						sys, err := directory.New(directory.Config{
							Nodes: 16, Geometry: geom, Policy: pol, Placement: pl,
						})
						if err != nil {
							b.Fatal(err)
						}
						if err := sys.Run(accs); err != nil {
							b.Fatal(err)
						}
						if pi == 0 {
							base = sys.Messages()
						} else {
							metrics[bs] = cost.Reduction(base, sys.Messages())
						}
					}
				}
			}
			for _, bs := range sim.Table3BlockSizes {
				b.ReportMetric(metrics[bs], fmt.Sprintf("%dB-%%red", bs))
			}
		})
	}
}

// BenchmarkCostRatios regenerates E6: the §4.1 weighted cost analysis for
// MP3D and Locus Route at infinite cache and 16-byte blocks.
func BenchmarkCostRatios(b *testing.B) {
	for _, app := range []string{"MP3D", "Locus Route"} {
		b.Run(app, func(b *testing.B) {
			accs := benchTrace(b, app)
			pl := placement.UsageBased(accs, benchGeom, 16)
			var r1, r2, r4 float64
			for i := 0; i < b.N; i++ {
				var base, agg cost.Msgs
				for pi, pol := range []core.Policy{core.Conventional, core.Aggressive} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, Policy: pol, Placement: pl,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
					} else {
						agg = sys.Messages()
					}
				}
				r1 = cost.Reduction(base, agg)
				r2 = cost.WeightedReduction(base, agg, 2)
				r4 = cost.WeightedReduction(base, agg, 4)
			}
			b.ReportMetric(r1, "1to1-%red")
			b.ReportMetric(r2, "2to1-%red")
			b.ReportMetric(r4, "4to1-%red")
		})
	}
}

// BenchmarkExecutionTime regenerates E7: the §4.2 execution-time study.
func BenchmarkExecutionTime(b *testing.B) {
	for _, app := range sim.ExecApps {
		b.Run(app, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.ExecutionTime(benchOpts(app), core.Basic, 0)
				if err != nil {
					b.Fatal(err)
				}
				red = rows[0].ReductionPct
			}
			b.ReportMetric(red, "time-%red")
		})
	}
}

// BenchmarkBusProtocol regenerates E8: §4.3's bus results under both cost
// models, at 64 KB caches.
func BenchmarkBusProtocol(b *testing.B) {
	for _, prof := range workload.Profiles() {
		app := prof.Name
		b.Run(app, func(b *testing.B) {
			accs := benchTrace(b, app)
			var m1, m2 float64
			for i := 0; i < b.N; i++ {
				var counts [2]snoop.Counts
				for pi, p := range []snoop.Protocol{snoop.MESI, snoop.Adaptive} {
					sys, err := snoop.New(snoop.Config{
						Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10, Protocol: p,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					counts[pi] = sys.Counts()
				}
				m1 = 100 * (1 - float64(counts[1].Total())/float64(counts[0].Total()))
				m2 = 100 * (1 - float64(counts[1].Model2(true))/float64(counts[0].Model2(false)))
			}
			b.ReportMetric(m1, "model1-%save")
			b.ReportMetric(m2, "model2-%save")
		})
	}
}

// BenchmarkSymmetryBaseline regenerates E9: the §5 comparison against the
// Sequent Symmetry migrate-modified-blocks policy on read-shared data.
func BenchmarkSymmetryBaseline(b *testing.B) {
	var accs []trace.Access
	for round := 0; round < 200; round++ {
		accs = append(accs, trace.Access{Node: 0, Kind: trace.Write, Addr: 0})
		for sweep := 0; sweep < 2; sweep++ {
			for n := memory.NodeID(1); n < 8; n++ {
				accs = append(accs, trace.Access{Node: n, Kind: trace.Read, Addr: 0})
			}
		}
	}
	var symRM, adpRM float64
	for i := 0; i < b.N; i++ {
		for _, p := range []snoop.Protocol{snoop.Symmetry, snoop.Adaptive} {
			sys, err := snoop.New(snoop.Config{Nodes: 8, Geometry: benchGeom, Protocol: p})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Run(accs); err != nil {
				b.Fatal(err)
			}
			if p == snoop.Symmetry {
				symRM = float64(sys.Counts().ReadMiss)
			} else {
				adpRM = float64(sys.Counts().ReadMiss)
			}
		}
	}
	b.ReportMetric(symRM/adpRM, "symmetry-readmiss-ratio")
}

// BenchmarkMigrationHalving regenerates E10: the §2 claim that
// migrate-on-read-miss halves the inter-cache operations for a migratory
// block.
func BenchmarkMigrationHalving(b *testing.B) {
	var accs []trace.Access
	for round := 0; round < 250; round++ {
		for n := memory.NodeID(1); n <= 4; n++ {
			accs = append(accs,
				trace.Access{Node: n, Kind: trace.Read, Addr: 0},
				trace.Access{Node: n, Kind: trace.Write, Addr: 0},
			)
		}
	}
	var conv, agg float64
	for i := 0; i < b.N; i++ {
		for _, pol := range []core.Policy{core.Conventional, core.Aggressive} {
			sys, err := directory.New(directory.Config{
				Nodes: 16, Geometry: benchGeom, Policy: pol,
				Placement: placement.NewRoundRobin(16),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Run(accs); err != nil {
				b.Fatal(err)
			}
			if pol.Adaptive {
				agg = float64(sys.Messages().Total())
			} else {
				conv = float64(sys.Messages().Total())
			}
		}
	}
	b.ReportMetric(conv/agg, "msg-ratio") // the paper's factor of ~2
}

// BenchmarkUpdateOnceBaseline (E13) quantifies §5's Alpha-hybrid
// criticism: bus transactions per protocol on the most migratory workload.
func BenchmarkUpdateOnceBaseline(b *testing.B) {
	accs := benchTrace(b, "MP3D")
	for _, p := range []snoop.Protocol{snoop.MESI, snoop.Berkeley, snoop.UpdateOnce, snoop.Adaptive} {
		b.Run(p.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				sys, err := snoop.New(snoop.Config{
					Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10, Protocol: p,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Run(accs); err != nil {
					b.Fatal(err)
				}
				total = float64(sys.Counts().Total())
			}
			b.ReportMetric(total, "bus-txns")
		})
	}
}

// BenchmarkLimitedDirectory (E16) measures the interaction between
// migratory detection and limited directory pointers: migration keeps copy
// sets at one, so the adaptive protocol suffers far fewer overflow
// broadcasts.
func BenchmarkLimitedDirectory(b *testing.B) {
	accs := benchTrace(b, "MP3D")
	pl := placement.UsageBased(accs, benchGeom, 16)
	for _, pointers := range []int{0, 4, 1} {
		name := "full-map"
		if pointers > 0 {
			name = fmt.Sprintf("dir%d", pointers)
		}
		b.Run(name, func(b *testing.B) {
			var red, overflowsConv, overflowsAdp float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, pol := range []core.Policy{core.Conventional, core.Aggressive} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, Policy: pol,
						Placement: pl, DirPointers: pointers,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
						overflowsConv = float64(sys.Counters().Overflows)
					} else {
						red = cost.Reduction(base, sys.Messages())
						overflowsAdp = float64(sys.Counters().Overflows)
					}
				}
			}
			b.ReportMetric(red, "aggressive-%red")
			b.ReportMetric(overflowsConv, "conv-overflows")
			b.ReportMetric(overflowsAdp, "agg-overflows")
		})
	}
}

// BenchmarkNodeCountSensitivity reports the aggressive reduction across
// machine sizes (an extension sweep; the paper fixes 16 processors).
func BenchmarkNodeCountSensitivity(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("nodes%d", n), func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.NodeCountSweep("MP3D", []int{n}, benchOpts("MP3D"))
				if err != nil {
					b.Fatal(err)
				}
				red = rows[0].Reductions[2]
			}
			b.ReportMetric(red, "aggressive-%red")
		})
	}
}

// BenchmarkClassifierAccuracy reports detection precision and recall.
func BenchmarkClassifierAccuracy(b *testing.B) {
	for _, app := range []string{"MP3D", "Pthor"} {
		b.Run(app, func(b *testing.B) {
			var prec, rec float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.ClassifierAccuracy(app, benchOpts(app), 0)
				if err != nil {
					b.Fatal(err)
				}
				agg := rows[len(rows)-1]
				prec, rec = agg.Precision(), agg.Recall()
			}
			b.ReportMetric(100*prec, "aggressive-precision%")
			b.ReportMetric(100*rec, "aggressive-recall%")
		})
	}
}

// BenchmarkOracleBound (E12) measures how much headroom an off-line
// analysis with perfect foreknowledge (§5's load-with-intent-to-modify)
// has over the on-line adaptive protocols.
func BenchmarkOracleBound(b *testing.B) {
	for _, app := range []string{"MP3D", "Water"} {
		b.Run(app, func(b *testing.B) {
			accs := benchTrace(b, app)
			pl := placement.UsageBased(accs, benchGeom, 16)
			patterns := trace.ClassifyBlocks(accs, benchGeom)
			oracle := func(blk memory.BlockID) bool { return patterns[blk] == trace.PatternMigratory }
			var aggRed, oracleRed float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				runOne := func(pol core.Policy, orc func(memory.BlockID) bool) cost.Msgs {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, Policy: pol,
						Placement: pl, MigratoryOracle: orc,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					return sys.Messages()
				}
				base = runOne(core.Conventional, nil)
				aggRed = cost.Reduction(base, runOne(core.Aggressive, nil))
				oracleRed = cost.Reduction(base, runOne(core.Conventional, oracle))
			}
			b.ReportMetric(aggRed, "aggressive-%red")
			b.ReportMetric(oracleRed, "oracle-%red")
		})
	}
}

// BenchmarkStenstromComparison (E11) runs the quantitative comparison with
// the Stenström, Brorsson & Sandberg protocol that §5 calls for.
func BenchmarkStenstromComparison(b *testing.B) {
	for _, app := range []string{"MP3D", "Pthor"} {
		b.Run(app, func(b *testing.B) {
			accs := benchTrace(b, app)
			pl := placement.UsageBased(accs, benchGeom, 16)
			var basicRed, stenRed float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, pol := range []core.Policy{core.Conventional, core.Basic, core.Stenstrom} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, CacheBytes: 16 << 10,
						Policy: pol, Placement: pl,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					switch pi {
					case 0:
						base = sys.Messages()
					case 1:
						basicRed = cost.Reduction(base, sys.Messages())
					case 2:
						stenRed = cost.Reduction(base, sys.Messages())
					}
				}
			}
			b.ReportMetric(basicRed, "basic-%red")
			b.ReportMetric(stenRed, "stenstrom-%red")
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationRetention compares keeping versus forgetting the
// migratory classification across uncached intervals, on a small cache
// where blocks are evicted between visits.
func BenchmarkAblationRetention(b *testing.B) {
	accs := benchTrace(b, "MP3D")
	pl := placement.UsageBased(accs, benchGeom, 16)
	variants := []core.Policy{
		core.Basic,
		{Name: "basic-forgetful", Adaptive: true, Hysteresis: 1},
	}
	for _, pol := range variants {
		b.Run(pol.Name, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, p := range []core.Policy{core.Conventional, pol} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, CacheBytes: 4 << 10,
						Policy: p, Placement: pl,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
					} else {
						red = cost.Reduction(base, sys.Messages())
					}
				}
			}
			b.ReportMetric(red, "%red")
		})
	}
}

// BenchmarkAblationHysteresis sweeps the hysteresis depth.
func BenchmarkAblationHysteresis(b *testing.B) {
	accs := benchTrace(b, "Water")
	pl := placement.UsageBased(accs, benchGeom, 16)
	for _, h := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("h%d", h), func(b *testing.B) {
			pol := core.Policy{Name: fmt.Sprintf("hyst-%d", h), Adaptive: true, Hysteresis: h, RetainWhenUncached: true}
			var red float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, p := range []core.Policy{core.Conventional, pol} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, Policy: p, Placement: pl,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
					} else {
						red = cost.Reduction(base, sys.Messages())
					}
				}
			}
			b.ReportMetric(red, "%red")
		})
	}
}

// BenchmarkAblationInitial compares the initial classification choice.
func BenchmarkAblationInitial(b *testing.B) {
	accs := benchTrace(b, "Cholesky")
	pl := placement.UsageBased(accs, benchGeom, 16)
	variants := []core.Policy{core.Basic, core.Aggressive}
	for _, pol := range variants {
		b.Run("initial-"+map[bool]string{false: "other", true: "migratory"}[pol.InitialMigratory], func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, p := range []core.Policy{core.Conventional, pol} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, Policy: p, Placement: pl,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
					} else {
						red = cost.Reduction(base, sys.Messages())
					}
				}
			}
			b.ReportMetric(red, "%red")
		})
	}
}

// BenchmarkAblationPlacement quantifies §4.2's explanation for the gap
// between the trace-driven and execution-driven results: page placement.
func BenchmarkAblationPlacement(b *testing.B) {
	accs := benchTrace(b, "MP3D")
	policies := map[string]placement.Policy{
		"round-robin": placement.NewRoundRobin(16),
		"first-touch": placement.FirstTouch(accs, benchGeom, 16),
		"usage-based": placement.UsageBased(accs, benchGeom, 16),
	}
	for _, name := range []string{"round-robin", "first-touch", "usage-based"} {
		pl := policies[name]
		b.Run(name, func(b *testing.B) {
			var total, red float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, p := range []core.Policy{core.Conventional, core.Basic} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, Policy: p, Placement: pl,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
						total = float64(base.Total())
					} else {
						red = cost.Reduction(base, sys.Messages())
					}
				}
			}
			b.ReportMetric(total, "conv-msgs")
			b.ReportMetric(red, "basic-%red")
		})
	}
}

// BenchmarkAblationWriteBuffer measures how much of the §4.2 time benefit
// survives under a weakly ordered memory system where writes never stall.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	accs := benchTrace(b, "MP3D")
	for _, buffered := range []bool{false, true} {
		name := "blocking-writes"
		if buffered {
			name = "write-buffered"
		}
		b.Run(name, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				params := timing.DefaultParams()
				params.ThinkCycles = 22
				params.WriteBuffered = buffered
				mk := func(pol core.Policy) timing.Result {
					r, err := timing.Run(accs, timing.Config{
						Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10,
						Policy: pol, Params: params,
					})
					if err != nil {
						b.Fatal(err)
					}
					return r
				}
				red = timing.Reduction(mk(core.Conventional), mk(core.Basic))
			}
			b.ReportMetric(red, "time-%red")
		})
	}
}

// BenchmarkAblationDropNotify measures the weight of the clean-replacement
// notification accounting the paper debates in §3.3.
func BenchmarkAblationDropNotify(b *testing.B) {
	accs := benchTrace(b, "Water")
	pl := placement.UsageBased(accs, benchGeom, 16)
	for _, free := range []bool{false, true} {
		name := "charged"
		if free {
			name = "free"
		}
		b.Run(name, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				var base cost.Msgs
				for pi, p := range []core.Policy{core.Conventional, core.Aggressive} {
					sys, err := directory.New(directory.Config{
						Nodes: 16, Geometry: benchGeom, CacheBytes: 16 << 10,
						Policy: p, Placement: pl, FreeDropNotifications: free,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Run(accs); err != nil {
						b.Fatal(err)
					}
					if pi == 0 {
						base = sys.Messages()
					} else {
						red = cost.Reduction(base, sys.Messages())
					}
				}
			}
			b.ReportMetric(red, "%red")
		})
	}
}

// benchParallelOpts shortens the sweep so the sequential baseline run inside
// the parallel benchmarks stays cheap.
func benchParallelOpts(parallelism int, apps ...string) sim.Options {
	o := benchOpts(apps...)
	o.Length = 40_000
	o.Parallelism = parallelism
	return o
}

// reportSpeedup records the parallel benchmark's wall-clock advantage over a
// one-worker run of the same sweep, both to the benchmark output and to the
// machine-readable baseline at results/bench_sweep.json. On a single-CPU
// machine the speedup hovers around 1; on >= 4 cores the embarrassingly
// parallel sweeps should exceed 2x.
func reportSpeedup(b *testing.B, name string, seq time.Duration) {
	b.Helper()
	par := b.Elapsed() / time.Duration(b.N)
	speedup := seq.Seconds() / par.Seconds()
	b.ReportMetric(speedup, "speedup-vs-seq")
	err := stats.UpdateBenchJSON("results/bench_sweep.json", name, map[string]float64{
		"sequential_ns": float64(seq.Nanoseconds()),
		"parallel_ns":   float64(par.Nanoseconds()),
		"speedup":       speedup,
		"gomaxprocs":    float64(runtime.GOMAXPROCS(0)),
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable2Parallel measures the parallel sweep engine on the Table 2
// directory sweep: a full (app x cache x policy) fan-out with
// Parallelism=GOMAXPROCS, against a one-worker baseline of the identical
// configuration.
func BenchmarkTable2Parallel(b *testing.B) {
	seqStart := time.Now()
	if _, err := sim.Table2(benchParallelOpts(1, "Water", "MP3D", "Cholesky")); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(seqStart)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Table2(benchParallelOpts(0, "Water", "MP3D", "Cholesky")); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSpeedup(b, "BenchmarkTable2Parallel", seq)
}

// BenchmarkRunBusParallel measures the parallel engine on the bus-based
// comparison of §4.3 ((app x cache x protocol) cells).
func BenchmarkRunBusParallel(b *testing.B) {
	seqStart := time.Now()
	if _, err := sim.RunBus(benchParallelOpts(1, "Water", "MP3D", "Cholesky"), nil, nil); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(seqStart)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunBus(benchParallelOpts(0, "Water", "MP3D", "Cholesky"), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSpeedup(b, "BenchmarkRunBusParallel", seq)
}

// BenchmarkStreamedTable2 prices the streaming sweep path against the
// materialized one at two trace lengths. The interesting column is memory:
// the streamed run feeds each cell from a lazy generator source, so its
// allocated bytes stay flat as the trace grows, while the materialized run
// holds the whole access slice and scales linearly. Both variants land on
// bit-identical counters (TestStreamedTable2Equivalence).
func BenchmarkStreamedTable2(b *testing.B) {
	lengths := []int{40_000, 160_000}
	measured := map[string]float64{}
	for _, stream := range []bool{false, true} {
		mode := "materialized"
		if stream {
			mode = "streamed"
		}
		for _, length := range lengths {
			b.Run(fmt.Sprintf("%s/len=%d", mode, length), func(b *testing.B) {
				b.ReportAllocs()
				opts := benchOpts("MP3D")
				opts.Length = length
				opts.Parallelism = 1
				opts.Stream = stream
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					if _, err := sim.Table2(opts); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				measured[fmt.Sprintf("%s_%d_bytes_op", mode, length)] =
					float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
			})
		}
	}
	// Sub-benchmarks have all run by now; derive the growth factors (how
	// much allocation scales with a 4x longer trace) and persist them.
	sGrow, mGrow := 0.0, 0.0
	if v := measured["streamed_40000_bytes_op"]; v > 0 {
		sGrow = measured["streamed_160000_bytes_op"] / v
	}
	if v := measured["materialized_40000_bytes_op"]; v > 0 {
		mGrow = measured["materialized_160000_bytes_op"] / v
	}
	if sGrow > 0 {
		measured["streamed_growth_4x_trace"] = sGrow
		measured["materialized_growth_4x_trace"] = mGrow
		if err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkStreamedTable2", measured); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMTRImage encodes an application's benchmark trace into an in-memory
// .mtr image, so the batched-decode benchmarks run against the real file
// format without disk noise.
func benchMTRImage(b *testing.B, app string) []byte {
	b.Helper()
	accs := benchTrace(b, app)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 16})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchFileSource opens an in-memory .mtr image through the indexed reader
// (one decoder per GOMAXPROCS), optionally hiding its NextBatch method so
// the engines fall back to the per-access pull path.
func benchFileSource(b *testing.B, img []byte, batched bool) trace.Source {
	b.Helper()
	src, err := trace.NewIndexedSource(bytes.NewReader(img), int64(len(img)), 0)
	if err != nil {
		b.Fatal(err)
	}
	if batched {
		return src
	}
	return noBatch{src}
}

// BenchmarkBatchedTable2 prices the PR's two hot-loop changes together on
// the Table 2 directory workload: all four policies at the 64 KB midpoint
// over an .mtr-backed MP3D trace. The three modes are
//
//   - baseline:  the PR-3 hot loop, replayed verbatim — a per-access
//     Next() pull through the Reader interface, an errors.Is EOF test on
//     every pull, a modulo cancellation check, the un-specialized Access
//     entry point, and the switch-based classifier transitions
//   - unbatched: table kernel + specialized batch loop, per-access delivery
//   - batched:   table kernel + NextBatch delivery in 4096-access chunks
//
// All modes are asserted to land on bit-identical counters; the ns/op of
// each and the end-to-end speedup go to results/bench_sweep.json.
func BenchmarkBatchedTable2(b *testing.B) {
	img := benchMTRImage(b, "MP3D")
	pl := placement.UsageBased(benchTrace(b, "MP3D"), benchGeom, 16)
	// pr3Loop is the inner loop of PR 3's RunSource, inlined here so the
	// baseline mode measures the pre-batching delivery path this PR removed.
	pr3Loop := func(b *testing.B, sys *directory.System, src trace.Source) {
		b.Helper()
		ctx := context.Background()
		for i := 0; ; i++ {
			if i&4095 == 0 {
				if err := ctx.Err(); err != nil {
					b.Fatal(err)
				}
			}
			a, err := src.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Access(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	run := func(b *testing.B, batched, pr3 bool) (cost.Msgs, directory.Counters) {
		b.Helper()
		var msgs cost.Msgs
		var n directory.Counters
		for _, pol := range core.Policies() {
			sys, err := directory.New(directory.Config{
				Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10,
				Policy: pol, Placement: pl,
			})
			if err != nil {
				b.Fatal(err)
			}
			if pr3 {
				// The loop only pulls via Next(), so the raw source works;
				// its NextBatch method is simply never called.
				pr3Loop(b, sys, benchFileSource(b, img, true))
			} else if err := sys.RunSource(nil, benchFileSource(b, img, batched)); err != nil {
				b.Fatal(err)
			}
			msgs = msgs.Add(sys.Messages())
			n = sys.Counters()
		}
		return msgs, n
	}

	modes := []struct {
		name    string
		batched bool
		tables  bool
		pr3     bool
	}{
		{"baseline", false, false, true},
		{"unbatched", false, true, false},
		{"batched", true, true, false},
	}
	msgs := make([]cost.Msgs, len(modes))
	counters := make([]directory.Counters, len(modes))
	elapsed := make([]time.Duration, len(modes))
	mallocs := make([]uint64, len(modes))
	allocBytes := make([]uint64, len(modes))
	// The modes are measured interleaved within every iteration, so slow
	// drift of the machine's effective clock rate (shared CPUs, thermal
	// throttle) hits all of them equally and cancels out of the ratios.
	b.Run("paired", func(b *testing.B) {
		defer func() { core.DisableTables = false }()
		var before, after runtime.MemStats
		for i := 0; i < b.N; i++ {
			for mi, m := range modes {
				core.DisableTables = !m.tables
				runtime.ReadMemStats(&before)
				start := time.Now()
				msgs[mi], counters[mi] = run(b, m.batched, m.pr3)
				elapsed[mi] += time.Since(start)
				runtime.ReadMemStats(&after)
				mallocs[mi] += after.Mallocs - before.Mallocs
				allocBytes[mi] += after.TotalAlloc - before.TotalAlloc
			}
		}
		for mi := 1; mi < len(modes); mi++ {
			if msgs[mi] != msgs[0] || counters[mi] != counters[0] {
				b.Fatalf("%s diverged from %s: %+v/%+v vs %+v/%+v",
					modes[mi].name, modes[0].name, msgs[mi], counters[mi], msgs[0], counters[0])
			}
		}
		measured := map[string]float64{}
		for mi, m := range modes {
			measured[m.name+"_ns_per_op"] = float64(elapsed[mi].Nanoseconds()) / float64(b.N)
			measured[m.name+"_bytes_per_op"] = float64(allocBytes[mi]) / float64(b.N)
			measured[m.name+"_allocs_per_op"] = float64(mallocs[mi]) / float64(b.N)
		}
		speedup := measured["baseline_ns_per_op"] / measured["batched_ns_per_op"]
		measured["speedup"] = speedup
		b.ReportMetric(speedup, "speedup-vs-pr3-loop")
		b.ReportMetric(measured["unbatched_ns_per_op"]/measured["batched_ns_per_op"], "speedup-batching-only")
		if err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkBatchedTable2", measured); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkBatchedBus is the bus-engine counterpart: MESI and the adaptive
// protocol over the same .mtr-backed trace, batched versus unbatched, with
// bit-identical transaction counts.
func BenchmarkBatchedBus(b *testing.B) {
	img := benchMTRImage(b, "MP3D")
	run := func(b *testing.B, batched bool) snoop.Counts {
		b.Helper()
		var counts snoop.Counts
		for _, p := range []snoop.Protocol{snoop.MESI, snoop.Adaptive} {
			sys, err := snoop.New(snoop.Config{
				Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10, Protocol: p,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.RunSource(nil, benchFileSource(b, img, batched)); err != nil {
				b.Fatal(err)
			}
			counts = sys.Counts()
		}
		return counts
	}

	modes := []struct {
		name    string
		batched bool
	}{
		{"unbatched", false},
		{"batched", true},
	}
	var counts [2]snoop.Counts
	elapsed := make([]time.Duration, len(modes))
	mallocs := make([]uint64, len(modes))
	allocBytes := make([]uint64, len(modes))
	// Interleaved measurement, as in BenchmarkBatchedTable2.
	b.Run("paired", func(b *testing.B) {
		var before, after runtime.MemStats
		for i := 0; i < b.N; i++ {
			for mi, m := range modes {
				runtime.ReadMemStats(&before)
				start := time.Now()
				counts[mi] = run(b, m.batched)
				elapsed[mi] += time.Since(start)
				runtime.ReadMemStats(&after)
				mallocs[mi] += after.Mallocs - before.Mallocs
				allocBytes[mi] += after.TotalAlloc - before.TotalAlloc
			}
		}
		if counts[0] != counts[1] {
			b.Fatalf("batched and unbatched bus runs diverged: %+v vs %+v", counts[1], counts[0])
		}
		measured := map[string]float64{}
		for mi, m := range modes {
			measured[m.name+"_ns_per_op"] = float64(elapsed[mi].Nanoseconds()) / float64(b.N)
			measured[m.name+"_bytes_per_op"] = float64(allocBytes[mi]) / float64(b.N)
			measured[m.name+"_allocs_per_op"] = float64(mallocs[mi]) / float64(b.N)
		}
		speedup := measured["unbatched_ns_per_op"] / measured["batched_ns_per_op"]
		measured["speedup"] = speedup
		b.ReportMetric(speedup, "speedup-batching-only")
		if err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkBatchedBus", measured); err != nil {
			b.Fatal(err)
		}
	})
}

// probeOverheadBaseline is the pre-observability BenchmarkTable2/MP3D-shaped
// measurement (all four policies, 64 KB caches, benchLength trace), captured
// before the probe layer landed. The nil-probe sub-benchmark below re-records
// the same workload into results/bench_sweep.json next to these figures, so
// a drift of the uninstrumented hot path shows up in the baseline diff.
const (
	probeOverheadBaselineNs     = 17644318
	probeOverheadBaselineAllocs = 241
)

// BenchmarkProbeOverhead prices the observability layer on the
// BenchmarkTable2/MP3D hot path. Every emission site in the directory engine
// hides behind a single probe-nil pointer test, so the nil-probe variant
// must stay within noise of the pre-observability baseline (ns/op and
// allocs/op); the metrics-probe variant measures a fully attached
// MetricsProbe for comparison.
func BenchmarkProbeOverhead(b *testing.B) {
	accs := benchTrace(b, "MP3D")
	pl := placement.UsageBased(accs, benchGeom, 16)
	iter := func(b *testing.B, probe func() Probe) {
		b.Helper()
		for _, pol := range core.Policies() {
			sys, err := directory.New(directory.Config{
				Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10,
				Policy: pol, Placement: pl, Probe: probe(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Run(accs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil-probe", func(b *testing.B) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			iter(b, func() Probe { return nil })
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkProbeOverhead/nil-probe", map[string]float64{
			"ns_per_op":              float64(elapsed.Nanoseconds()) / float64(b.N),
			"allocs_per_op":          float64(after.Mallocs-before.Mallocs) / float64(b.N),
			"baseline_ns_per_op":     probeOverheadBaselineNs,
			"baseline_allocs_per_op": probeOverheadBaselineAllocs,
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("metrics-probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			iter(b, func() Probe { return &MetricsProbe{} })
		}
	})
}

// BenchmarkShardedTable2 prices set-sharded intra-run parallelism on the
// Table 2 directory workload (all four policies, 64 KB caches, MP3D over an
// .mtr-backed source): a sequential run versus the same run split across 8
// per-set engine shards. The modes are asserted bit-identical; ns/op for
// each, the speedup, and the machine's GOMAXPROCS go to
// results/bench_sweep.json. The speedup scales with real cores — on a
// single-CPU machine the sharded run only pays the demux overhead.
func BenchmarkShardedTable2(b *testing.B) {
	img := benchMTRImage(b, "MP3D")
	pl := placement.UsageBased(benchTrace(b, "MP3D"), benchGeom, 16)
	run := func(b *testing.B, shards int) (cost.Msgs, directory.Counters) {
		b.Helper()
		var msgs cost.Msgs
		var n directory.Counters
		for _, pol := range core.Policies() {
			cfg := directory.Config{
				Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10,
				Policy: pol, Placement: pl,
			}
			sys, err := directory.NewSharded(cfg, shards, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.RunSource(nil, benchFileSource(b, img, true)); err != nil {
				b.Fatal(err)
			}
			msgs = msgs.Add(sys.Messages())
			n = sys.Counters()
		}
		return msgs, n
	}

	modes := []struct {
		name   string
		shards int
	}{
		{"sequential", 1},
		{"sharded8", 8},
	}
	msgs := make([]cost.Msgs, len(modes))
	counters := make([]directory.Counters, len(modes))
	elapsed := make([]time.Duration, len(modes))
	mallocs := make([]uint64, len(modes))
	allocBytes := make([]uint64, len(modes))
	// Interleaved measurement, as in BenchmarkBatchedTable2.
	b.Run("paired", func(b *testing.B) {
		var before, after runtime.MemStats
		for i := 0; i < b.N; i++ {
			for mi, m := range modes {
				runtime.ReadMemStats(&before)
				start := time.Now()
				msgs[mi], counters[mi] = run(b, m.shards)
				elapsed[mi] += time.Since(start)
				runtime.ReadMemStats(&after)
				mallocs[mi] += after.Mallocs - before.Mallocs
				allocBytes[mi] += after.TotalAlloc - before.TotalAlloc
			}
		}
		for mi := 1; mi < len(modes); mi++ {
			if msgs[mi] != msgs[0] || counters[mi] != counters[0] {
				b.Fatalf("%s diverged from %s: %+v/%+v vs %+v/%+v",
					modes[mi].name, modes[0].name, msgs[mi], counters[mi], msgs[0], counters[0])
			}
		}
		measured := map[string]float64{"gomaxprocs": float64(runtime.GOMAXPROCS(0))}
		for mi, m := range modes {
			measured[m.name+"_ns_per_op"] = float64(elapsed[mi].Nanoseconds()) / float64(b.N)
			measured[m.name+"_bytes_per_op"] = float64(allocBytes[mi]) / float64(b.N)
			measured[m.name+"_allocs_per_op"] = float64(mallocs[mi]) / float64(b.N)
		}
		speedup := measured["sequential_ns_per_op"] / measured["sharded8_ns_per_op"]
		measured["speedup"] = speedup
		b.ReportMetric(speedup, "speedup-8-shards")
		if err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkShardedTable2", measured); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkTelemetryOverhead prices the runtime telemetry layer: the basic
// policy over an in-memory MP3D trace with Config.Stats nil ("off" — must
// stay within noise of the uninstrumented hot path, since disabled
// telemetry is one pointer test per 4096-access batch) versus a shared
// RunStats block with a live 50ms Sampler attached ("on"). Counters are
// asserted bit-identical across modes, and the on/off ratio is the
// regression guard: telemetry is only near-zero-cost while that ratio
// stays near 1.
func BenchmarkTelemetryOverhead(b *testing.B) {
	accs := benchTrace(b, "MP3D")
	run := func(b *testing.B, rs *telemetry.RunStats) (cost.Msgs, directory.Counters) {
		b.Helper()
		sys, err := directory.New(directory.Config{
			Nodes: 16, Geometry: benchGeom, CacheBytes: 64 << 10,
			Policy: core.Basic, Placement: placement.NewRoundRobin(16),
			Stats: rs,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(accs); err != nil {
			b.Fatal(err)
		}
		return sys.Messages(), sys.Counters()
	}

	var rs telemetry.RunStats
	sampler := telemetry.NewSampler(&rs, 50*time.Millisecond)
	sampler.Start()
	defer sampler.Stop()

	modes := []struct {
		name  string
		stats *telemetry.RunStats
	}{
		{"off", nil},
		{"on", &rs},
	}
	msgs := make([]cost.Msgs, len(modes))
	counters := make([]directory.Counters, len(modes))
	elapsed := make([]time.Duration, len(modes))
	mallocs := make([]uint64, len(modes))
	allocBytes := make([]uint64, len(modes))
	b.Run("paired", func(b *testing.B) {
		// The framework may re-enter with a larger b.N; count only this pass.
		accBase := rs.Accesses.Load()
		var before, after runtime.MemStats
		for i := 0; i < b.N; i++ {
			for mi, m := range modes {
				runtime.ReadMemStats(&before)
				start := time.Now()
				msgs[mi], counters[mi] = run(b, m.stats)
				elapsed[mi] += time.Since(start)
				runtime.ReadMemStats(&after)
				mallocs[mi] += after.Mallocs - before.Mallocs
				allocBytes[mi] += after.TotalAlloc - before.TotalAlloc
			}
		}
		if msgs[0] != msgs[1] || counters[0] != counters[1] {
			b.Fatalf("instrumented run diverged: %+v/%+v vs %+v/%+v",
				msgs[1], counters[1], msgs[0], counters[0])
		}
		if got, want := rs.Accesses.Load()-accBase, uint64(b.N)*uint64(len(accs)); got != want {
			b.Fatalf("RunStats saw %d accesses this pass, want %d", got, want)
		}
		measured := map[string]float64{"gomaxprocs": float64(runtime.GOMAXPROCS(0))}
		for mi, m := range modes {
			measured[m.name+"_ns_per_op"] = float64(elapsed[mi].Nanoseconds()) / float64(b.N)
			measured[m.name+"_bytes_per_op"] = float64(allocBytes[mi]) / float64(b.N)
			measured[m.name+"_allocs_per_op"] = float64(mallocs[mi]) / float64(b.N)
		}
		ratio := measured["on_ns_per_op"] / measured["off_ns_per_op"]
		measured["overhead_ratio"] = ratio
		b.ReportMetric(ratio, "on/off-ratio")
		if err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkTelemetryOverhead", measured); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkParallelDecodeMTR prices the indexed (v3) decode path on its
// own, with no simulator attached: draining an in-memory .mtr image
// through an IndexedFileSource with one segment decoder versus two, each
// decoding whole segments from contiguous buffers into pooled slabs.
// Decoded streams are asserted bit-identical via an order-sensitive
// checksum. The second decoder overlaps decode with consumption when real
// cores exist; on one CPU it measures the pipeline's hand-off cost.
func BenchmarkParallelDecodeMTR(b *testing.B) {
	img := benchMTRImage(b, "MP3D")
	drain := func(b *testing.B, src trace.Source) (int, uint64) {
		b.Helper()
		defer src.Close()
		buf := make([]trace.Access, 4096)
		total := 0
		var sum uint64
		for {
			n, err := trace.FillBatch(src, buf)
			for _, a := range buf[:n] {
				total += 1
				sum = sum*1099511628211 + uint64(a.Addr)<<9 + uint64(a.Node)<<1 + uint64(a.Kind)
			}
			if err == io.EOF {
				return total, sum
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	modes := []struct {
		name     string
		decoders int
	}{
		{"indexed1", 1},
		{"indexed2", 2},
	}
	counts := make([]int, len(modes))
	sums := make([]uint64, len(modes))
	elapsed := make([]time.Duration, len(modes))
	mallocs := make([]uint64, len(modes))
	allocBytes := make([]uint64, len(modes))
	b.Run("paired", func(b *testing.B) {
		var before, after runtime.MemStats
		for i := 0; i < b.N; i++ {
			for mi, m := range modes {
				src, err := trace.NewIndexedSource(bytes.NewReader(img), int64(len(img)), m.decoders)
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&before)
				start := time.Now()
				counts[mi], sums[mi] = drain(b, src)
				elapsed[mi] += time.Since(start)
				runtime.ReadMemStats(&after)
				mallocs[mi] += after.Mallocs - before.Mallocs
				allocBytes[mi] += after.TotalAlloc - before.TotalAlloc
			}
		}
		if counts[1] != counts[0] || sums[1] != sums[0] {
			b.Fatalf("2-decoder decode diverged: %d/%x vs %d/%x", counts[1], sums[1], counts[0], sums[0])
		}
		measured := map[string]float64{"gomaxprocs": float64(runtime.GOMAXPROCS(0))}
		for mi, m := range modes {
			measured[m.name+"_ns_per_op"] = float64(elapsed[mi].Nanoseconds()) / float64(b.N)
			measured[m.name+"_bytes_per_op"] = float64(allocBytes[mi]) / float64(b.N)
			measured[m.name+"_allocs_per_op"] = float64(mallocs[mi]) / float64(b.N)
		}
		speedup := measured["indexed1_ns_per_op"] / measured["indexed2_ns_per_op"]
		measured["speedup"] = speedup
		b.ReportMetric(speedup, "speedup-2-decoders")
		if err := stats.UpdateBenchJSON("results/bench_sweep.json", "BenchmarkParallelDecodeMTR", measured); err != nil {
			b.Fatal(err)
		}
	})
}
