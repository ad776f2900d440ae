// Command perfbench is the repository benchmark. It drives the real
// cmd/paper, cmd/tracegen and cmd/cohd binaries on one of two workloads
// and prints one JSON result line as the last line of standard output:
//
//	bash perfbench/run.sh --workload paper-eval --seed 0 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics of a
// separate traced run: spans recorded around calls into each module's
// public functions, and an open-loop load on cohd. Every simulated result
// is checked against committed SHA-256 goldens (goldens.json); a mismatch
// is a failed operation and makes the command exit non-zero. README.md
// explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings. The shape of the traced run's cohd
// load (rate, connections, mix) is passed by BENCHMARK.json's command line
// so that both sides of a comparison run the identical load.
type config struct {
	root, bin, work string

	workload string
	seed     int64
	seconds  time.Duration
	traced   bool

	rate  float64
	conns int
	mix   mix

	nproc   int
	goldens *goldens
	tmp     string // per-invocation scratch directory, removed at exit
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_ns_per_access", "ns"},
	{"peak_rss_mb", "MB"},
}

// workloads maps each workload name to its timed pass.
var workloads = map[string]func(context.Context, *config, time.Duration, *tracer) (*pass, error){
	"paper-eval": paperEval,
	"mtr-replay": mtrReplay,
}

// pass is the outcome of running one workload for a while.
type pass struct {
	attempted, failed int
	// metrics holds the end-to-end values by name.
	metrics map[string]float64
	// mtrOp is the last successful mtr-replay op (its manifest carries the
	// segment-cache statistics); nil for other workloads.
	mtrOp *opRun
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := &config{nproc: runtime.NumCPU()}
	var seconds int
	var traced int
	var mixSpec string
	var regen bool
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the built paper, tracegen and cohd binaries")
	flag.StringVar(&cfg.work, "work", "", "scratch directory inside the checkout (run.sh passes its build directory)")
	flag.StringVar(&cfg.workload, "workload", "", "paper-eval or mtr-replay")
	flag.Int64Var(&cfg.seed, "seed", 0, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = timed run")
	flag.Float64Var(&cfg.rate, "cohd-rate", 20, "traced run's cohd load: offered requests per second")
	flag.IntVar(&cfg.conns, "cohd-conns", 2, "traced run's cohd load: keep-alive connections")
	flag.StringVar(&mixSpec, "cohd-mix", "0.75,0.15,0.10", "traced run's cohd load: shares of fresh, repeat and no_cache replay requests")
	flag.BoolVar(&regen, "regen-goldens", false, "recompute goldens.json from the current code and exit")
	flag.Parse()

	if err := cfg.validate(seconds, traced, mixSpec, regen); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, cfg, regen)
	stop()
	os.Exit(code)
}

func (c *config) validate(seconds, traced int, mixSpec string, regen bool) error {
	if c.bin == "" || c.work == "" {
		return errors.New("-bin and -work are required (start the benchmark through run.sh)")
	}
	if _, ok := workloads[c.workload]; !ok && !regen {
		return fmt.Errorf("unknown --workload %q (want paper-eval or mtr-replay)", c.workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want >= 1", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traced)
	}
	if c.rate <= 0 || c.conns < 1 {
		return fmt.Errorf("cohd load: rate %g and connections %d must be positive", c.rate, c.conns)
	}
	m, err := parseMix(mixSpec)
	if err != nil {
		return err
	}
	c.mix, c.seconds, c.traced = m, time.Duration(seconds)*time.Second, traced == 1
	return nil
}

func run(ctx context.Context, cfg *config, regen bool) int {
	tmp, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	if regen {
		if err := regenGoldens(ctx, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: regenerating goldens:", err)
			return 1
		}
		return 0
	}
	if cfg.goldens, err = loadGoldens(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	steal0 := hostSteal()
	var res *result
	if cfg.traced {
		res, err = tracedRun(ctx, cfg)
	} else {
		res, err = timedRun(ctx, cfg)
	}
	if s0, s1 := steal0, hostSteal(); s1.total > s0.total {
		fmt.Fprintf(os.Stderr, "perfbench: the hypervisor took %.1f%% of this VM's CPU time during the run\n",
			100*float64(s1.steal-s0.steal)/float64(s1.total-s0.total))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timedRun measures the workload's end-to-end metrics with tracing off.
func timedRun(ctx context.Context, cfg *config) (*result, error) {
	p, err := workloads[cfg.workload](ctx, cfg, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		v, ok := p.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s not measured", cfg.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: finite(v), Unit: m.unit}
	}
	return res, nil
}

// finite keeps a result encodable: JSON has no infinity, and a run whose
// percentile landed on a failed operation has already failed.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.Inf(1)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTicks is the machine-wide CPU time from /proc/stat: the total and the
// part a hypervisor took away (steal). On a shared VM, steal is the
// largest source of run-to-run wall-time noise, so every run reports it.
type cpuTicks struct{ total, steal int64 }

func hostSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user … steal; guest time is already inside user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}
