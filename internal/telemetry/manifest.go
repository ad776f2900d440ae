package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Manifest records the exact conditions of one tool run, so every row of a
// results artifact (results/bench_sweep.json, a CSV sweep, a report) is
// traceable to the configuration, code version, and machine behavior that
// produced it. Config fields are filled at start; Finish seals the outcome
// fields; WriteManifest persists the whole thing atomically.
type Manifest struct {
	Tool    string   `json:"tool"`
	Args    []string `json:"args"`
	Version string   `json:"version"`

	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
	PID        int    `json:"pid"`

	// Resolved run configuration (the sweep options after defaulting).
	Nodes       int      `json:"nodes,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Length      int      `json:"length,omitempty"`
	Apps        []string `json:"apps,omitempty"`
	Policies    []string `json:"policies,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Shards      int      `json:"shards,omitempty"`
	Stream      bool     `json:"stream,omitempty"`
	TraceFile   string   `json:"trace_file,omitempty"`
	BlockSize   int      `json:"block_size,omitempty"`
	PageSize    int      `json:"page_size,omitempty"`
	// Extra carries tool-specific settings (table number, cache list, ...).
	Extra map[string]any `json:"extra,omitempty"`

	// Outcome fields, sealed by Finish. Accesses covers every completed
	// cell; CellsReused and AccessesReused count the cells (and their share
	// of Accesses) answered by an identical cell's result instead of a
	// simulation, and AccessesFolded the share the engines credited in
	// bulk as silent repeats of a folded trace.
	Start          time.Time `json:"start"`
	End            time.Time `json:"end"`
	WallSeconds    float64   `json:"wall_seconds"`
	Accesses       uint64    `json:"accesses"`
	AccessesFolded uint64    `json:"accesses_folded,omitempty"`
	Throughput     float64   `json:"accesses_per_sec"`
	CellsDone      uint64    `json:"cells_done,omitempty"`
	CellsReused    uint64    `json:"cells_reused,omitempty"`
	AccessesReused uint64    `json:"accesses_reused,omitempty"`
	Transitions    uint64    `json:"transitions,omitempty"`
	Migrations     uint64    `json:"migrations,omitempty"`
	PeakRSSBytes   uint64    `json:"peak_rss_bytes"`
	HeapAllocBytes uint64    `json:"heap_alloc_bytes"`
	NumGC          uint32    `json:"num_gc"`
	// TraceCache records the decoded-segment cache totals at run end (hit/
	// miss counters, peak pinned bytes) for every tool that opened a trace
	// through a SegmentCache; nil when the process ran without one.
	TraceCache *CacheStats `json:"trace_cache,omitempty"`
	// Outcome is "ok", or the error string of a failed run.
	Outcome string `json:"outcome"`
}

// NewManifest starts a manifest for the named tool: command line, build
// version, and machine facts are captured immediately, Start is now.
func NewManifest(tool string) Manifest {
	m := Manifest{
		Tool:       tool,
		Args:       append([]string(nil), os.Args[1:]...),
		Version:    buildVersion(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PID:        os.Getpid(),
		Start:      time.Now(),
		Outcome:    "ok",
	}
	if h, err := os.Hostname(); err == nil {
		m.Hostname = h
	}
	return m
}

// buildVersion renders the module version plus VCS revision when the
// binary carries build info ("(devel) a1b2c3d4-dirty", "v1.2.0").
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return fmt.Sprintf("%s %s%s", v, rev, dirty)
	}
	return v
}

// Finish seals the outcome fields from the run's final sample. err, when
// non-nil, is recorded as the outcome.
func (m *Manifest) Finish(final Sample, err error) {
	m.End = final.Time
	if m.End.IsZero() {
		m.End = time.Now()
	}
	m.WallSeconds = m.End.Sub(m.Start).Seconds()
	m.Accesses = final.Accesses
	m.AccessesFolded = final.AccessesFolded
	if m.WallSeconds > 0 {
		m.Throughput = float64(final.Accesses) / m.WallSeconds
	}
	m.CellsDone = final.CellsDone
	m.CellsReused = final.CellsReused
	m.AccessesReused = final.AccessesReused
	m.Transitions = final.Transitions
	m.Migrations = final.Migrations
	m.PeakRSSBytes = peakRSSBytes()
	m.HeapAllocBytes = final.HeapAllocBytes
	m.NumGC = final.NumGC
	if m.TraceCache = final.Cache; m.TraceCache == nil {
		// Synthetic final samples (cohd's per-request manifests) carry no
		// cache observation; fall back to the live process-wide provider.
		m.TraceCache = SnapshotCacheStats()
	}
	if err != nil {
		m.Outcome = err.Error()
	}
}

// WriteManifest persists the manifest atomically (temp file + rename, see
// WriteFileAtomic) as dir/manifest_<tool>_<start>_<pid>.json and returns
// the path. The timestamp+pid name keeps concurrent and repeated runs from
// clobbering each other.
func WriteManifest(dir string, m Manifest) (string, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("manifest_%s_%s_%d.json",
		sanitize(m.Tool), m.Start.UTC().Format("20060102T150405.000Z"), m.PID)
	path := filepath.Join(dir, name)
	if err := WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sanitize keeps manifest filenames shell-friendly.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}
