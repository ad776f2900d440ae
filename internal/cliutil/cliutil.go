// Package cliutil collects the flag parsing, option wiring, and trace
// loading shared by the cmd/ mains, so each command declares only what is
// unique to it: the common sweep flags (-apps, -length, -seed, -nodes,
// -parallelism, -shards, -decoders, -trace, -stream), the parallelism
// guard, signal-cancelled
// contexts, policy and bus-protocol lookup, event-filter parsing, and the
// fatal/usage exit helpers.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"migratory/internal/core"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// Flags bundles the sweep flags every simulator CLI shares. Register them
// before flag.Parse, then call Validate and Options.
type Flags struct {
	name string

	Apps            *string
	Length          *int
	Seed            *int64
	Nodes           *int
	Parallelism     *int
	Shards          *int
	Decoders        *int
	Trace           *string
	Stream          *bool
	TraceCacheBytes *int64

	cacheOnce sync.Once
	cache     *trace.SegmentCache
}

// Register declares the shared sweep flags on the default flag set and
// returns their holder. name prefixes error messages ("migsim: ...").
func Register(name string) *Flags {
	f := &Flags{name: name}
	f.Apps = flag.String("apps", "", "comma-separated app subset (default: all five)")
	f.Length = flag.Int("length", 0, "trace length override (0 = per-app default)")
	f.Seed = flag.Int64("seed", 1993, "workload generator seed")
	f.Nodes = flag.Int("nodes", 16, "processor count")
	f.Parallelism = flag.Int("parallelism", 0, "sweep worker goroutines (0 = all CPUs, 1 = sequential; results are identical either way)")
	f.Shards = flag.Int("shards", 1, "engine shards per untimed simulation run, split by cache-set index (1 = sequential, -1 = all CPUs; results are identical either way)")
	f.Decoders = flag.Int("decoders", 0, "parallel trace-decode workers for indexed (v3) .mtr files (0 = all CPUs, 1 = sequential decode; results are identical either way)")
	f.Trace = flag.String("trace", "", "run over a binary trace file (from tracegen) instead of the built-in workloads")
	f.Stream = flag.Bool("stream", false, "regenerate traces lazily per simulation cell instead of materializing them (O(1) trace memory; bit-identical results)")
	f.TraceCacheBytes = flag.Int64("trace-cache-bytes", trace.DefaultTraceCacheBytes, "decoded-segment cache capacity shared by every cell replaying an indexed (v3) .mtr trace (0 = decode per cell; results are identical either way)")
	return f
}

// Cache returns the process-wide decoded-segment cache described by
// -trace-cache-bytes, building it on first call and registering it as the
// telemetry plane's cache observation source (so /metrics and run
// manifests carry its hit/miss/pinned counters). Returns nil when the flag
// is 0 — caching off.
func (f *Flags) Cache() *trace.SegmentCache {
	f.cacheOnce.Do(func() {
		f.cache = trace.NewSegmentCache(*f.TraceCacheBytes)
		if f.cache != nil {
			c := f.cache
			telemetry.RegisterCacheStats(func() telemetry.CacheStats { return c.Stats() })
		}
	})
	return f.cache
}

// Validate enforces the shared flag invariants after flag.Parse, exiting
// with usage (status 2) on violation. -shards composes with -parallelism
// multiplicatively; when the two together would oversubscribe GOMAXPROCS,
// the worker pool is capped (with a warning on stderr) rather than refused,
// since results are bit-identical at any setting.
func (f *Flags) Validate() {
	f.validateWorkerFlag("-parallelism", *f.Parallelism, 0)
	f.validateWorkerFlag("-shards", *f.Shards, -1)
	f.validateWorkerFlag("-decoders", *f.Decoders, 0)
	if *f.TraceCacheBytes < 0 {
		Usagef(f.name, "-trace-cache-bytes must be >= 0 (0 disables the cache; got %d)", *f.TraceCacheBytes)
	}

	procs := runtime.GOMAXPROCS(0)
	shards := *f.Shards
	if shards < 0 {
		shards = procs
	}
	workers := *f.Parallelism
	if workers == 0 {
		workers = procs
	}
	if shards > procs {
		slog.Warn("-shards exceeds GOMAXPROCS; shards will contend for CPUs",
			"tool", f.name, "shards", shards, "gomaxprocs", procs)
	}
	if shards > 1 && workers > 1 && shards*workers > procs {
		capped := procs / shards
		if capped < 1 {
			capped = 1
		}
		if capped < workers {
			slog.Warn("-shards x -parallelism oversubscribes GOMAXPROCS; capping parallelism",
				"tool", f.name, "shards", shards, "parallelism", workers, "gomaxprocs", procs, "capped", capped)
			*f.Parallelism = capped
		}
	}
}

// ResolveShards turns a -shards value into a usable engine shard count for
// commands that construct engines directly (sim.Options performs the same
// resolution internally): -1 means all CPUs, counts round down to a power
// of two, and finite caches cap the count at the per-cache set count so no
// shard is left without sets.
func ResolveShards(shards, cacheBytes, blockSize int) int {
	if shards == -1 {
		shards = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p*2 <= shards {
		p *= 2
	}
	if max := directory.MaxShards(cacheBytes, blockSize, 0); max > 0 && p > max {
		p = max
	}
	return p
}

// validateWorkerFlag is the shared range check for the two worker-count
// flags: positive counts are always valid, and auto (the flag's designated
// auto value: 0 for -parallelism, -1 for -shards) means "all CPUs".
// Anything else is a usage error.
func (f *Flags) validateWorkerFlag(flagName string, v, auto int) {
	if v >= 1 || v == auto {
		return
	}
	Usagef(f.name, "%s must be >= 1 or %d for all CPUs (got %d)", flagName, auto, v)
}

// Options assembles the sim.Options the flags describe. ctx, when non-nil,
// cancels the sweeps built from these options (see SignalContext).
func (f *Flags) Options(ctx context.Context) sim.Options {
	opts := sim.Options{
		Context:     ctx,
		Nodes:       *f.Nodes,
		Seed:        *f.Seed,
		Length:      *f.Length,
		Stream:      *f.Stream,
		Parallelism: *f.Parallelism,
		Shards:      *f.Shards,
		Cache:       f.Cache(),
	}
	if *f.Apps != "" {
		for _, a := range strings.Split(*f.Apps, ",") {
			opts.Apps = append(opts.Apps, strings.TrimSpace(a))
		}
	}
	return opts
}

// TraceApps opens the -trace file, if one was given, as a one-element app
// list for the *Apps sweep variants; it returns nil when -trace is unset.
// Every simulation cell re-opens and re-decodes the file, so the sweep's
// trace memory stays constant no matter how many accesses the file holds.
func (f *Flags) TraceApps() ([]*sim.App, error) {
	if *f.Trace == "" {
		return nil, nil
	}
	app, err := TraceApp(*f.Trace, *f.Nodes, *f.Decoders, f.Cache())
	if err != nil {
		return nil, err
	}
	return []*sim.App{app}, nil
}

// TraceApp wraps one binary trace file (any .mtr version or the legacy
// fixed-record format) as a sim.App: the usage-based placement comes from
// one streaming profiling pass, and each Open re-reads the file from the
// start. Indexed (v3) files open as an IndexedFileSource with decoders
// decode workers; older versions fall back to sequential decode ahead of
// the simulation on a prefetch goroutine. Either way decode overlaps the
// engine's work (sharded runs included: the demux producer reads the same
// stream), and the composition is explicit in trace.OpenFileParallelCache
// rather than depending on the shard count.
// cache, when non-nil, lets every opened source (the profiling pass
// included) share decoded segments instead of re-decoding per cell.
func TraceApp(path string, nodes, decoders int, cache *trace.SegmentCache) (*sim.App, error) {
	return sim.NewSourceApp(path, func() (trace.Source, error) {
		return trace.OpenFileParallelCache(path, decoders, cache)
	}, nodes)
}

// ProfileFlags holds the pprof flags every command shares (-cpuprofile,
// -memprofile). Register them with RegisterProfile before flag.Parse, then
// arrange for the Start result to run before exit:
//
//	prof := cliutil.RegisterProfile("migsim")
//	flag.Parse()
//	defer prof.Start()()
//
// The profiles feed `go tool pprof` (see `make profile`).
type ProfileFlags struct {
	name string
	cpu  *string
	mem  *string
}

// RegisterProfile declares the shared profiling flags on the default flag
// set.
func RegisterProfile(name string) *ProfileFlags {
	p := &ProfileFlags{name: name}
	p.cpu = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	p.mem = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	return p
}

// profileStop flushes any in-flight profiles; Fatal runs it so a failed run
// still writes whatever the CPU profiler collected.
var profileStop func()

// Start begins CPU profiling when -cpuprofile was given and returns the
// stop function, which also writes the heap profile when -memprofile was
// given. The stop function is idempotent; flush failures are reported to
// stderr rather than exiting (the run's real output already happened).
func (p *ProfileFlags) Start() func() {
	var cpuFile *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			Fatal(p.name, "-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			Fatal(p.name, "-cpuprofile: %v", err)
		}
		cpuFile = f
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", p.name, err)
				}
			}
			if *p.mem == "" {
				return
			}
			f, err := os.Create(*p.mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", p.name, err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", p.name, err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", p.name, err)
			}
		})
	}
	profileStop = stop
	return stop
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM, so ^C
// aborts an in-flight sweep promptly and cleanly (the sweep returns
// ctx.Err()). A second signal kills the process as usual.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Fatal is the single funnel every command's runtime failure exits
// through: it emits one structured slog error line (honouring -log-level
// and -log-format when RegisterTelemetry set them up), flushes any
// in-flight profiles, and exits with status 1. Mid-stream trace decode
// errors, sweep failures, and IO errors all land here, so scripted callers
// get a machine-parseable last line and a non-zero status instead of a
// panic or a bare print.
func Fatal(name, format string, args ...any) {
	slog.Error(fmt.Sprintf(format, args...), "tool", name)
	if profileStop != nil {
		profileStop()
	}
	os.Exit(1)
}

// Usagef prints "name: message" and the flag usage, then exits with
// status 2 (a command-line error rather than a runtime failure).
func Usagef(name, format string, args ...any) {
	fmt.Fprintf(os.Stderr, name+": "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// PolicyArg resolves a -policy flag value, exiting with usage on an
// unknown name.
func PolicyArg(name, policy string) core.Policy {
	pol, err := core.PolicyByName(policy)
	if err != nil {
		Usagef(name, "%v", err)
	}
	return pol
}

// BusProtocolByName resolves a snooping protocol variant by its name. The
// error wraps snoop.ErrUnknownProtocol, exactly like the unified Run API.
func BusProtocolByName(name string) (snoop.Protocol, error) {
	return snoop.ProtocolByName(name)
}

// ParseCaches parses a comma-separated list of per-node cache sizes in
// bytes ("65536,1048576").
func ParseCaches(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, c := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil {
			return nil, fmt.Errorf("bad cache size %q", c)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// ParseFilter builds an event filter from the comma-separated -kinds,
// -blocks, and -filter-nodes flag values (empty = no restriction).
func ParseFilter(kinds, blocks, nodes string) (obs.Filter, error) {
	var f obs.Filter
	if kinds != "" {
		for _, name := range strings.Split(kinds, ",") {
			k, err := obs.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return f, err
			}
			f.Kinds = f.Kinds.Add(k)
		}
	}
	if blocks != "" {
		f.Blocks = make(map[memory.BlockID]bool)
		for _, s := range strings.Split(blocks, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return f, fmt.Errorf("bad block ID %q", s)
			}
			f.Blocks[memory.BlockID(v)] = true
		}
	}
	if nodes != "" {
		f.Nodes = make(map[memory.NodeID]bool)
		for _, s := range strings.Split(nodes, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
			if err != nil {
				return f, fmt.Errorf("bad node ID %q", s)
			}
			f.Nodes[memory.NodeID(v)] = true
		}
	}
	return f, nil
}
