// Command tracegen generates, inspects, and converts the synthetic
// SPLASH-like shared-memory traces used by the simulators. Generation
// streams straight from the workload generator into the compact .mtr
// format: the writer holds one segment of encoded records (-segment-bytes,
// 64 KiB by default) and writes each segment to the file in one call, so
// arbitrarily long traces are written in memory bounded by the segment
// size, and statistics are computed in streaming passes over the source.
//
// Usage:
//
//	tracegen -app MP3D -o mp3d.mtr            # generate a binary trace
//	tracegen -app Water -stats                # print trace statistics
//	tracegen -in mp3d.mtr -stats              # analyze an existing trace
//	tracegen -in old.mtr -o new.mtr           # convert an MTR1/MTR2 trace to v3
//	tracegen -list                            # list available profiles
//
// Every simulator reads v3 traces only. tracegen is the one reader of the
// older MTR1 and MTR2 formats: given one with -in, it re-encodes it as v3
// into -o (and -stats then reads the new file).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"migratory/internal/cliutil"
	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/sim"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// run is the command's telemetry session; fatal funnels failures through
// it so even a failed generation leaves a manifest.
var run *telemetry.Run

func main() {
	var (
		app       = flag.String("app", "", "application profile to generate")
		in        = flag.String("in", "", "read an existing binary trace instead of generating")
		out       = flag.String("o", "", "write the trace to this file (.mtr binary format)")
		length    = flag.Int("length", 0, "trace length (0 = profile default)")
		seed      = flag.Int64("seed", 1993, "generator seed")
		nodes     = flag.Int("nodes", 16, "processor count")
		blockSize = flag.Int("block", 16, "block size for the statistics")
		stats     = flag.Bool("stats", false, "print trace statistics")
		list      = flag.Bool("list", false, "list available application profiles")
		segBytes  = flag.Int("segment-bytes", 0, "target encoded segment size of the .mtr output (0 = default)")

		prof = cliutil.RegisterProfile("tracegen")
		tele = cliutil.RegisterTelemetry("tracegen")
	)
	flag.Parse()
	tele.SetupLogging()
	defer prof.Start()()

	if *list {
		fmt.Printf("%-12s %-12s %s\n", "profile", "footprint", "segments")
		for _, p := range workload.Profiles() {
			segs := ""
			for i, s := range p.Segments {
				if i > 0 {
					segs += ", "
				}
				segs += fmt.Sprintf("%s (%s, %d x %dB)", s.Name, s.Kind, s.Objects, s.ObjWords*4)
			}
			fmt.Printf("%-12s %6d KB    %s\n", p.Name, p.FootprintKB(), segs)
		}
		return
	}

	run = tele.Start(sim.Options{Nodes: *nodes, Seed: *seed, Length: *length}, *in,
		map[string]any{"app": *app, "out": *out, "block": *blockSize})
	defer run.Close(nil)

	geom, err := memory.NewGeometry(*blockSize, 4096)
	if err != nil {
		fatal(err)
	}

	hdr := trace.Header{BlockSize: geom.BlockSize(), PageSize: geom.PageSize(), Nodes: *nodes}
	opts := trace.WriterOptions{SegmentBytes: *segBytes}

	var src trace.Source
	converted := false
	switch {
	case *in != "":
		if *out != "" && sameFile(*in, *out) {
			cliutil.Usagef("tracegen", "-o must not name the -in file %s", *in)
		}
		src, converted, err = openInput(*in, *out, hdr, opts)
		if err != nil {
			fatal(err)
		}
	case *app != "":
		prof, err := workload.ProfileByName(*app)
		if err != nil {
			fatal(err)
		}
		src, err = workload.NewSource(prof, *nodes, *seed, *length)
		if err != nil {
			fatal(err)
		}
	default:
		cliutil.Usagef("tracegen", "need -app, -in, or -list")
	}
	defer src.Close()

	if *out != "" && !converted {
		n, err := export(src, *out, hdr, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d accesses to %s\n", n, *out)
		if err := src.Reset(); err != nil {
			fatal(err)
		}
	}

	if *stats || *out == "" {
		if err := report(src, geom, *nodes); err != nil {
			fatal(err)
		}
	}
	run.Close(nil)
}

// openInput opens the -in trace through its segment index. An MTR1/MTR2
// trace has none, so it is converted instead: decoded sequentially and
// written to out as v3, which is then opened in its place (converted
// reports this). Converting needs out. Geometry the input header records
// wins over hdr, the flags' defaults.
func openInput(in, out string, hdr trace.Header, opts trace.WriterOptions) (src trace.Source, converted bool, err error) {
	fs, err := trace.OpenFileParallelCache(in, 0, nil)
	if err == nil {
		return fs, false, nil
	}
	if !errors.Is(err, trace.ErrNoIndex) {
		return nil, false, err
	}
	if out == "" {
		cliutil.Usagef("tracegen", "%s is an MTR1/MTR2 trace, which no simulator reads: give -o to convert it to v3 (%s)",
			in, trace.ConvertCommand)
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		return nil, false, err
	}
	n, err := export(dec, out, mergeHeader(dec.Header(), hdr), opts)
	if err != nil {
		return nil, false, fmt.Errorf("converting %s: %w", in, err)
	}
	fmt.Printf("converted %d accesses from %s to %s\n", n, in, out)
	if fs, err = trace.OpenFileParallelCache(out, 0, nil); err != nil {
		return nil, false, err
	}
	return fs, true, nil
}

// mergeHeader fills the fields the input header leaves unspecified (all
// of them for MTR1) from def.
func mergeHeader(h, def trace.Header) trace.Header {
	if h.BlockSize == 0 {
		h.BlockSize = def.BlockSize
	}
	if h.PageSize == 0 {
		h.PageSize = def.PageSize
	}
	if h.Nodes == 0 {
		h.Nodes = def.Nodes
	}
	return h
}

// sameFile reports whether a and b name one existing file.
func sameFile(a, b string) bool {
	fa, err := os.Stat(a)
	if err != nil {
		return false
	}
	fb, err := os.Stat(b)
	return err == nil && os.SameFile(fa, fb)
}

// export streams r into an .mtr file and returns the access count.
func export(r trace.Reader, path string, hdr trace.Header, opts trace.WriterOptions) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := trace.NewWriterOptions(f, hdr, opts)
	n, err := trace.Copy(w, r)
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

// report prints the trace census and the local-access fraction under each
// placement policy, each computed in its own streaming pass.
func report(src trace.Source, geom memory.Geometry, nodes int) error {
	st, err := trace.AnalyzeSource(src, geom)
	if err != nil {
		return err
	}
	fmt.Print(st)

	rewind := func() error { return src.Reset() }
	if err := rewind(); err != nil {
		return err
	}
	ft, err := placement.FirstTouchSource(src, geom, nodes)
	if err != nil {
		return err
	}
	if err := rewind(); err != nil {
		return err
	}
	ub, err := placement.UsageBasedSource(src, geom, nodes)
	if err != nil {
		return err
	}
	for _, pl := range []placement.Policy{placement.NewRoundRobin(nodes), ft, ub} {
		if err := rewind(); err != nil {
			return err
		}
		frac, err := placement.LocalFractionSource(src, geom, pl)
		if err != nil {
			return err
		}
		fmt.Printf("local access fraction under %-11s placement: %.1f%%\n",
			pl.Name(), 100*frac)
	}
	return nil
}

// fatal exits through the shared cliutil funnel: one structured error
// line, a sealed manifest, status 1.
func fatal(err error) {
	cliutil.FatalRun(run, "tracegen", "%v", err)
}
