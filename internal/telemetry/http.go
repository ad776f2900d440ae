package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// Server is the opt-in telemetry HTTP endpoint of a running tool. It is a
// plain stdlib server on its own mux (nothing leaks onto
// http.DefaultServeMux) serving:
//
//	/metrics     Prometheus text exposition of the live run counters
//	/status      the full latest Sample plus the run manifest, as JSON
//	/healthz     liveness ("ok" once serving)
//	/debug/vars  expvar, including a "migratory" var mirroring /status
//	/debug/pprof the standard pprof handlers (profile, heap, trace, ...)
type Server struct {
	sampler *Sampler
	tool    string

	mu       sync.Mutex
	manifest *Manifest

	// extension points: extra handlers mount on mux, extra metric and
	// status producers append to the built-in payloads (cohd uses these to
	// serve its API and admission metrics from the one telemetry server).
	mux        *http.ServeMux
	extMu      sync.Mutex
	extMetrics []func(io.Writer)
	extStatus  []func() map[string]any

	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// publishOnce guards the process-wide expvar registration (expvar.Publish
// panics on duplicate names; tests may start several servers).
var publishOnce sync.Once

// StartServer listens on addr (host:port; ":0" picks a free port) and
// serves the telemetry endpoints until Close. manifest, when non-nil, is
// included in /status responses and may be updated live via SetManifest.
func StartServer(addr, tool string, sampler *Sampler, manifest *Manifest) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{sampler: sampler, tool: tool, manifest: manifest, ln: ln, done: make(chan struct{})}

	mux := http.NewServeMux()
	s.mux = mux
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	publishOnce.Do(func() {
		expvar.Publish("migratory", expvar.Func(func() any {
			return s.statusPayload()
		}))
	})

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal shutdown path; anything else has
		// nowhere to go but the status endpoint's absence.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle mounts an extra handler on the server's mux (http.ServeMux
// patterns, including Go 1.22 method patterns). Safe while serving;
// panics like ServeMux.Handle on conflicting patterns.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// OnMetrics registers a producer appending extra families to /metrics
// responses (Prometheus text exposition; the producer writes complete
// HELP/TYPE/sample lines). Producers run in registration order on every
// scrape and must be safe for concurrent calls.
func (s *Server) OnMetrics(f func(io.Writer)) {
	s.extMu.Lock()
	s.extMetrics = append(s.extMetrics, f)
	s.extMu.Unlock()
}

// OnStatus registers a producer merging extra top-level keys into /status
// responses (and the expvar mirror). Later producers win key conflicts.
func (s *Server) OnStatus(f func() map[string]any) {
	s.extMu.Lock()
	s.extStatus = append(s.extStatus, f)
	s.extMu.Unlock()
}

// SetManifest swaps the manifest served by /status.
func (s *Server) SetManifest(m *Manifest) {
	s.mu.Lock()
	s.manifest = m
	s.mu.Unlock()
}

// Close stops the server and waits for the serve goroutine to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

func (s *Server) statusPayload() map[string]any {
	sm := s.sampler.Snapshot()
	s.mu.Lock()
	man := s.manifest
	s.mu.Unlock()
	payload := map[string]any{
		"tool":   s.tool,
		"sample": sm,
	}
	if man != nil {
		payload["manifest"] = man
	}
	s.extMu.Lock()
	ext := s.extStatus
	s.extMu.Unlock()
	for _, f := range ext {
		for k, v := range f() {
			payload[k] = v
		}
	}
	return payload
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.statusPayload())
}

// handleMetrics renders the latest sample in the Prometheus text
// exposition format (version 0.0.4): counters as *_total, gauges bare,
// per-shard queue depths as a labeled family.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sm := s.sampler.Snapshot()
	var b strings.Builder

	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("migratory_accesses_total", "Trace accesses covered by completed cells (simulated or reused).", float64(sm.Accesses))
	counter("migratory_accesses_folded_total", "Silent repeats of folded traces the engines credited in bulk (part of migratory_accesses_total).", float64(sm.AccessesFolded))
	counter("migratory_batches_total", "Record batches delivered to the engines.", float64(sm.Batches))
	counter("migratory_classifier_transitions_total", "Classifier verdict flips (classify + declassify).", float64(sm.Transitions))
	counter("migratory_migrations_total", "Read misses served by migrating the block.", float64(sm.Migrations))
	counter("migratory_probe_events_total", "Typed obs events forwarded by attached StatsProbes.", float64(sm.Events))
	counter("migratory_cells_done_total", "Sweep simulation cells completed.", float64(sm.CellsDone))
	gauge("migratory_cells_total", "Sweep simulation cells scheduled (0 = not a sweep).", float64(sm.CellsTotal))
	counter("migratory_cells_reused_total", "Completed sweep cells answered by an identical cell's result.", float64(sm.CellsReused))
	counter("migratory_accesses_reused_total", "Accesses of the reused cells (part of migratory_accesses_total).", float64(sm.AccessesReused))
	counter("migratory_demux_batches_total", "Routed shard batches delivered by the demux stage.", float64(sm.DemuxBatches))
	counter("migratory_demux_stalls_total", "Shard-batch hand-offs that blocked on a full queue.", float64(sm.DemuxStalls))
	counter("migratory_demux_stall_seconds_total", "Producer time spent blocked on full shard queues.", float64(sm.DemuxStallNs)/1e9)
	gauge("migratory_throughput_accesses_per_second", "Instantaneous access throughput.", sm.Rate)
	gauge("migratory_throughput_cumulative_accesses_per_second", "Whole-run average access throughput.", sm.CumulativeRate)
	gauge("migratory_batch_fill_avg", "Average records per delivered batch.", sm.AvgBatchFill)
	gauge("migratory_eta_seconds", "Estimated remaining sweep wall time (0 = unknown).", sm.ETA.Seconds())

	if cs := sm.Cache; cs != nil {
		counter("migratory_trace_cache_hits_total", "Segment acquisitions served from the decoded-segment cache.", float64(cs.Hits))
		counter("migratory_trace_cache_misses_total", "Segment acquisitions that had to decode.", float64(cs.Misses))
		counter("migratory_trace_cache_single_flight_joins_total", "Hits that waited on another goroutine's in-progress decode.", float64(cs.SingleFlightJoins))
		counter("migratory_trace_cache_evictions_total", "Decoded segments dropped under memory pressure.", float64(cs.Evictions))
		counter("migratory_trace_cache_evicted_bytes_total", "Cumulative bytes of evicted decoded segments.", float64(cs.EvictedBytes))
		gauge("migratory_trace_cache_capacity_bytes", "Configured decoded-segment cache capacity.", float64(cs.CapBytes))
		gauge("migratory_trace_cache_resident_bytes", "Decoded-access bytes currently resident.", float64(cs.ResidentBytes))
		gauge("migratory_trace_cache_pinned_bytes", "Resident bytes referenced by in-flight consumers.", float64(cs.PinnedBytes))
		gauge("migratory_trace_cache_peak_pinned_bytes", "High-water mark of pinned bytes.", float64(cs.PeakPinnedBytes))
		gauge("migratory_trace_cache_entries", "Decoded segments resident.", float64(cs.Entries))
	}

	if len(sm.QueueDepths) > 0 {
		fmt.Fprintf(&b, "# HELP migratory_shard_queue_depth Routed batches in flight per shard slot.\n# TYPE migratory_shard_queue_depth gauge\n")
		for i, d := range sm.QueueDepths {
			fmt.Fprintf(&b, "migratory_shard_queue_depth{shard=\"%d\"} %d\n", i, d)
		}
	}

	gauge("go_goroutines", "Live goroutines.", float64(sm.Goroutines))
	gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(sm.HeapAllocBytes))
	gauge("go_heap_sys_bytes", "Heap memory obtained from the OS.", float64(sm.HeapSysBytes))
	counter("go_alloc_bytes_total", "Cumulative bytes allocated.", float64(sm.TotalAllocBytes))
	counter("go_gc_cycles_total", "Completed GC cycles.", float64(sm.NumGC))
	counter("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", float64(sm.GCPauseTotalNs)/1e9)
	gauge("process_uptime_seconds", "Seconds since the sampler started.", sm.Elapsed.Seconds())

	s.extMu.Lock()
	ext := s.extMetrics
	s.extMu.Unlock()
	for _, f := range ext {
		f(&b)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
