package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// RunConfig configures StartRun. The zero value is fully passive: no HTTP
// server, no progress printing, no manifest, default sampling interval.
type RunConfig struct {
	// Tool names the running command ("migsim", "bussim", ...).
	Tool string
	// Addr, when non-empty, starts the telemetry HTTP server there.
	Addr string
	// Interval is the sampling cadence (<= 0 means DefaultInterval).
	Interval time.Duration
	// ManifestDir, when non-empty, receives an atomically written run
	// manifest at Close.
	ManifestDir string
	// Progress, when non-nil, receives one-line progress/ETA updates per
	// sample (intended for a TTY's stderr).
	Progress io.Writer
	// Logger receives lifecycle messages; nil uses slog.Default().
	Logger *slog.Logger
	// Manifest is the pre-filled run manifest (NewManifest plus resolved
	// config); only consulted when ManifestDir is set or Addr serves it.
	Manifest Manifest
}

// Run is one live telemetry session: a counter block the engines feed, a
// sampler over it, and optionally an HTTP server, progress printing, and a
// manifest written at Close.
type Run struct {
	cfg     RunConfig
	stats   RunStats
	sampler *Sampler
	server  *Server
	log     *slog.Logger
	closed  bool
}

// StartRun begins a telemetry session. It always succeeds in degraded form:
// if the HTTP listener fails the error is returned with a still-usable Run
// (sampler running, no server), so callers may choose to continue or abort.
func StartRun(cfg RunConfig) (*Run, error) {
	r := &Run{cfg: cfg, log: cfg.Logger}
	if r.log == nil {
		r.log = slog.Default()
	}
	r.sampler = NewSampler(&r.stats, cfg.Interval)
	if cfg.Progress != nil {
		r.sampler.OnSample = func(sm Sample) { writeProgress(cfg.Progress, cfg.Tool, sm) }
	}
	r.sampler.Start()

	var err error
	if cfg.Addr != "" {
		r.server, err = StartServer(cfg.Addr, cfg.Tool, r.sampler, &r.cfg.Manifest)
		if err != nil {
			r.log.Warn("telemetry server failed to start", "addr", cfg.Addr, "err", err)
		} else {
			r.log.Info("telemetry serving",
				"addr", r.server.Addr(),
				"endpoints", "/metrics /status /healthz /debug/vars /debug/pprof")
		}
	}
	return r, err
}

// Stats returns the counter block to hand to engines (sim.Options.Stats,
// directory/snoop Config.Stats). Never nil.
func (r *Run) Stats() *RunStats { return &r.stats }

// Sampler exposes the run's sampler for ad-hoc snapshots.
func (r *Run) Sampler() *Sampler { return r.sampler }

// Server exposes the run's HTTP server so callers can mount extra handlers
// or metrics producers on it (nil when no server runs).
func (r *Run) Server() *Server { return r.server }

// ServerAddr reports the bound telemetry address ("" when no server runs).
func (r *Run) ServerAddr() string {
	if r.server == nil {
		return ""
	}
	return r.server.Addr()
}

// Close ends the session: stops the sampler, seals the manifest with the
// final sample and runErr, writes it (when configured), shuts the server
// down, and logs a one-line run summary. Idempotent; returns the manifest
// path ("" when not written).
func (r *Run) Close(runErr error) (string, error) {
	if r.closed {
		return "", nil
	}
	r.closed = true

	final := r.sampler.Stop()
	r.cfg.Manifest.Finish(final, runErr)

	var path string
	var err error
	if r.cfg.ManifestDir != "" {
		path, err = WriteManifest(r.cfg.ManifestDir, r.cfg.Manifest)
		if err != nil {
			r.log.Warn("manifest write failed", "dir", r.cfg.ManifestDir, "err", err)
		}
	}
	if r.server != nil {
		_ = r.server.Close()
	}

	attrs := []any{
		"accesses", final.Accesses,
		"wall", final.Elapsed.Round(time.Millisecond),
		"accesses_per_sec", fmt.Sprintf("%.0f", final.CumulativeRate),
	}
	if final.CellsTotal > 0 {
		attrs = append(attrs, "cells", fmt.Sprintf("%d/%d", final.CellsDone, final.CellsTotal))
	}
	if final.AccessesFolded > 0 {
		attrs = append(attrs, "accesses_folded", final.AccessesFolded)
	}
	if final.CellsReused > 0 {
		attrs = append(attrs, "cells_reused", final.CellsReused, "accesses_reused", final.AccessesReused)
	}
	if final.DemuxStalls > 0 {
		attrs = append(attrs, "demux_stall", time.Duration(final.DemuxStallNs).Round(time.Millisecond))
	}
	if path != "" {
		attrs = append(attrs, "manifest", path)
	}
	if runErr != nil {
		attrs = append(attrs, "err", runErr)
		r.log.Error("run finished with error", attrs...)
	} else {
		r.log.Info("run finished", attrs...)
	}
	return path, err
}

// writeProgress renders one status line per sample, e.g.
//
//	migsim: 12/32 cells (37%) · 1.8M acc/s · heap 210 MB · eta 42s
//
// Lines are written whole so they interleave cleanly with log output.
func writeProgress(w io.Writer, tool string, sm Sample) {
	var b strings.Builder
	if tool != "" {
		fmt.Fprintf(&b, "%s: ", tool)
	}
	if sm.CellsTotal > 0 {
		fmt.Fprintf(&b, "%d/%d cells (%.0f%%) · ", sm.CellsDone, sm.CellsTotal,
			100*float64(sm.CellsDone)/float64(sm.CellsTotal))
	}
	fmt.Fprintf(&b, "%s acc/s · heap %s", humanCount(sm.Rate), humanBytes(sm.HeapAllocBytes))
	if sm.ETA > 0 {
		fmt.Fprintf(&b, " · eta %s", sm.ETA.Round(time.Second))
	}
	fmt.Fprintln(w, b.String())
}

// humanCount renders a rate compactly ("950", "1.8M", "12.3k").
func humanCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// humanBytes renders a byte count compactly ("210 MB").
func humanBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.0f MB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.0f kB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%d B", v)
	}
}
