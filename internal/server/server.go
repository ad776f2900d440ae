// Package server is the coherence-as-a-service core behind cmd/cohd: a
// bounded worker pool executing sim.Run requests with admission control
// (fixed-capacity queue, per-request deadlines), a content-hash result
// cache, per-request run manifests, and graceful drain. The HTTP surface
// lives in http.go; everything here is also usable in-process.
//
// Admission is strict: a request is either accepted (queued, coalesced
// onto an identical in-flight run, or served from the cache) or rejected
// immediately with ErrQueueFull/ErrDraining — nothing blocks the caller.
// Results are bit-identical to a direct sim.Run call with the same config:
// workers marshal the RunResult once and both the cache and the HTTP
// responses carry those exact bytes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"migratory/internal/sim"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity; HTTP maps it to 429 with Retry-After.
	ErrQueueFull = errors.New("server: run queue full")
	// ErrDraining is returned by Submit once Shutdown has begun; HTTP maps
	// it to 503.
	ErrDraining = errors.New("server: draining, not accepting new runs")
)

// Config configures New. The zero value is a usable in-memory service:
// default queue and worker counts, no result cache, no manifests, no
// deadlines.
type Config struct {
	// Queue is the admission queue capacity (0 = 64). Submissions beyond
	// queued+running capacity fail fast with ErrQueueFull.
	Queue int
	// Workers bounds concurrently executing runs (0 = GOMAXPROCS).
	Workers int
	// CacheDir, when non-empty, persists successful results as
	// <digest>.json files and serves repeats without re-simulation.
	CacheDir string
	// ManifestDir, when non-empty, receives one run manifest per executed
	// request (manifest_cohd_<pid>_<id>.json).
	ManifestDir string
	// DefaultTimeout bounds requests that name no deadline (0 = none).
	DefaultTimeout time.Duration
	// MaxTimeout caps requested deadlines (0 = uncapped).
	MaxTimeout time.Duration
	// Stats, when non-nil, is threaded into every run so the engines feed
	// the process's live telemetry counters.
	Stats *telemetry.RunStats
	// Cache, when non-nil, is the shared decoded-segment cache threaded
	// into every run: requests replaying the same indexed (MTR3) trace —
	// even with cold digests — share decoded segments instead of
	// re-decoding the file per request. Like Stats it cannot change a
	// result, so it plays no part in digests or result caching.
	Cache *trace.SegmentCache
	// Logger receives lifecycle messages; nil uses slog.Default().
	Logger *slog.Logger
	// RunFunc replaces sim.Run (tests only; nil = sim.Run).
	RunFunc func(context.Context, sim.RunConfig) (*sim.RunResult, error)
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Job is one admitted run request. Fields are guarded by the server's
// mutex; read them through Snapshot. Done is closed when the job reaches
// a terminal status.
type Job struct {
	id      string
	digest  string
	cfg     sim.RunConfig
	cfgJSON json.RawMessage
	timeout time.Duration

	status    Status
	err       error
	result    json.RawMessage
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// ID returns the job's server-unique identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot is a consistent copy of a job's externally visible state.
type Snapshot struct {
	ID        string          `json:"id"`
	Status    Status          `json:"status"`
	Digest    string          `json:"digest,omitempty"`
	CacheHit  bool            `json:"cache_hit,omitempty"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	WallMS    float64         `json:"wall_ms,omitempty"`
	Config    json.RawMessage `json:"config,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`

	err error
}

// Err returns the job's failure (nil unless Status is StatusFailed). The
// error survives errors.Is against the sim/trace/… sentinels and
// context.DeadlineExceeded.
func (s Snapshot) Err() error { return s.err }

// maxFinishedJobs bounds the finished-job history kept for listing; older
// finished jobs are evicted in submission order.
const maxFinishedJobs = 1024

// Server executes admitted run requests on its worker pool.
type Server struct {
	cfg   Config
	log   *slog.Logger
	cache *cache

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string
	byDigest map[string]*Job
	seq      int

	m metrics
}

// New starts a server: the cache directory is created (when configured)
// and the worker pool begins draining the queue immediately.
func New(cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.RunFunc == nil {
		cfg.RunFunc = sim.Run
	}
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		queue:    make(chan *Job, cfg.Queue),
		jobs:     make(map[string]*Job),
		byDigest: make(map[string]*Job),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.CacheDir != "" {
		c, err := newCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit admits one run request. The config is validated first (the error
// wraps the same typed sentinels a direct sim.Run returns), and a named
// trace file must be one a run can read (its digest is computed from the
// file's segment index, with the typed error opening it would give); then, in
// order: an identical queued/running request coalesces (the same *Job is
// returned), a cached digest is served as an already-done job, and
// otherwise the job is enqueued — or rejected with ErrQueueFull when the
// queue is at capacity, ErrDraining after Shutdown began. timeout <= 0
// uses Config.DefaultTimeout; Config.MaxTimeout caps either.
func (s *Server) Submit(cfg sim.RunConfig, timeout time.Duration, noCache bool) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// In-process configs with runtime overrides have no digest; they skip
	// coalescing and caching rather than failing. Any other digest error
	// is a trace file no run could read (missing, truncated, corrupt, or a
	// pre-index format), so the request is refused here, typed, instead of
	// being queued to fail.
	digest, err := cfg.Digest()
	if err != nil && !errors.Is(err, sim.ErrNoDigest) {
		return nil, err
	}
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	cfg.Stats = s.cfg.Stats
	cfg.Cache = s.cfg.Cache

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if digest != "" && !noCache {
		if prior := s.byDigest[digest]; prior != nil {
			s.m.coalesced.Add(1)
			return prior, nil
		}
		if s.cache != nil {
			if raw, ok := s.cache.get(digest); ok {
				s.m.cacheHits.Add(1)
				j := s.addJobLocked(cfg, digest, timeout)
				j.status = StatusDone
				j.cacheHit = true
				j.result = raw
				j.finished = j.submitted
				close(j.done)
				return j, nil
			}
			s.m.cacheMisses.Add(1)
		}
	}
	j := s.addJobLocked(cfg, digest, timeout)
	select {
	case s.queue <- j:
		if digest != "" {
			s.byDigest[digest] = j
		}
		s.m.accepted.Add(1)
		return j, nil
	default:
		s.removeJobLocked(j.id)
		s.m.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

func (s *Server) addJobLocked(cfg sim.RunConfig, digest string, timeout time.Duration) *Job {
	s.seq++
	short := "local"
	if len(digest) >= 8 {
		short = digest[:8]
	}
	j := &Job{
		id:        fmt.Sprintf("r%06d-%s", s.seq, short),
		digest:    digest,
		cfg:       cfg,
		timeout:   timeout,
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if blob, err := json.Marshal(cfg); err == nil {
		j.cfgJSON = blob
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j
}

func (s *Server) removeJobLocked(id string) {
	delete(s.jobs, id)
	if n := len(s.order); n > 0 && s.order[n-1] == id {
		s.order = s.order[:n-1]
	}
}

// evictLocked trims the finished-job history: while over budget and the
// oldest job is terminal, drop it. Queued/running jobs are never evicted.
func (s *Server) evictLocked() {
	for len(s.order) > maxFinishedJobs {
		j := s.jobs[s.order[0]]
		if j != nil && j.status != StatusDone && j.status != StatusFailed {
			return
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots the retained jobs in submission order.
func (s *Server) Jobs() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, s.snapshotLocked(j))
		}
	}
	return out
}

// Snapshot returns a consistent copy of one job's state.
func (s *Server) Snapshot(j *Job) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(j)
}

func (s *Server) snapshotLocked(j *Job) Snapshot {
	v := Snapshot{
		ID:        j.id,
		Status:    j.status,
		Digest:    j.digest,
		CacheHit:  j.cacheHit,
		Submitted: j.submitted,
		Config:    j.cfgJSON,
		Result:    j.result,
		err:       j.err,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		start := j.started
		if start.IsZero() {
			start = j.submitted
		}
		v.WallMS = float64(j.finished.Sub(start)) / float64(time.Millisecond)
	}
	return v
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	ctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	}
	defer cancel()

	s.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	s.mu.Unlock()
	s.m.inFlight.Add(1)

	res, err := s.cfg.RunFunc(ctx, j.cfg)
	var raw json.RawMessage
	if err == nil {
		raw, err = json.Marshal(res)
	}
	finished := time.Now()

	if err == nil && s.cache != nil && j.digest != "" {
		if cerr := s.cache.put(j.digest, j.cfgJSON, raw); cerr != nil {
			s.log.Warn("result cache write failed", "digest", j.digest, "err", cerr)
		}
	}
	s.writeManifest(j, res, err, finished)

	s.m.inFlight.Add(^uint64(0))
	s.m.observe(finished.Sub(j.started).Seconds())
	s.mu.Lock()
	if s.byDigest[j.digest] == j {
		delete(s.byDigest, j.digest)
	}
	j.finished = finished
	if err != nil {
		j.status = StatusFailed
		j.err = err
		s.m.failed.Add(1)
	} else {
		j.status = StatusDone
		j.result = raw
		s.m.completed.Add(1)
	}
	close(j.done)
	s.mu.Unlock()

	if err != nil {
		s.log.Warn("run failed", "id", j.id, "err", err)
	} else {
		s.log.Info("run finished", "id", j.id,
			"wall", finished.Sub(j.started).Round(time.Millisecond))
	}
}

// writeManifest seals one per-request manifest (when configured), named by
// pid+job id so concurrent and successive requests never clobber.
func (s *Server) writeManifest(j *Job, res *sim.RunResult, runErr error, finished time.Time) {
	if s.cfg.ManifestDir == "" {
		return
	}
	man := telemetry.NewManifest("cohd")
	man.Start = j.started
	man.Nodes = j.cfg.Nodes
	man.Seed = j.cfg.Seed
	man.Length = j.cfg.Length
	if j.cfg.Workload != "" {
		man.Apps = []string{j.cfg.Workload}
	}
	switch {
	case j.cfg.Policy != "":
		man.Policies = []string{j.cfg.Policy}
	case j.cfg.Protocol != "":
		man.Policies = []string{j.cfg.Protocol}
	}
	man.Shards = j.cfg.Shards
	man.TraceFile = j.cfg.TraceFile
	man.BlockSize = j.cfg.BlockSize
	man.Extra = map[string]any{
		"run_id":      j.id,
		"digest":      j.digest,
		"engine":      j.cfg.Engine,
		"cache_bytes": j.cfg.CacheBytes,
	}
	final := telemetry.Sample{Time: finished}
	if res != nil {
		final.Accesses = res.Accesses
	}
	man.Finish(final, runErr)
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(s.cfg.ManifestDir, fmt.Sprintf("manifest_cohd_%d_%s.json", man.PID, j.id))
	if err := telemetry.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		s.log.Warn("request manifest write failed", "id", j.id, "err", err)
	}
}

// Shutdown drains gracefully: admission stops (new Submits return
// ErrDraining), queued and in-flight jobs run to completion (sealing their
// manifests), and the call returns once the pool is idle. If ctx expires
// first the base context is cancelled — in-flight runs abort within a few
// thousand accesses and finish as failed — and ctx.Err() is returned.
// Idempotent; concurrent calls all wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-idle
		return ctx.Err()
	}
}

// Close aborts: cancels every in-flight run and waits for the pool.
func (s *Server) Close() error {
	s.baseCancel()
	return s.Shutdown(context.Background())
}
