package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"migratory/internal/sim"
	"migratory/internal/workload"
)

const (
	// cohdTraceAccesses is the length of the trace the cohd load's
	// no_cache requests replay.
	cohdTraceAccesses = 100_000
	// freshAccesses is the trace length of every fresh request.
	freshAccesses = 100_000
	// repeatPool bounds the recent fresh configs a repeat draws from, and
	// repeatAge is how long ago (in requests, as a multiple of the rate) a
	// config must have been due to be repeated, so that it has finished and
	// a repeat reads the result cache instead of coalescing.
	repeatPool = 16
	repeatAge  = time.Second
	// clientTimeout bounds one request; a timed-out request has failed.
	clientTimeout = 30 * time.Second
)

// mix is the share of each request kind in the cohd load's stream.
type mix struct{ fresh, repeat, replay float64 }

func parseMix(s string) (mix, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return mix{}, fmt.Errorf("--cohd-mix %q: want fresh,repeat,replay shares", s)
	}
	var v [3]float64
	sum := 0.0
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f < 0 {
			return mix{}, fmt.Errorf("--cohd-mix %q: bad share %q", s, p)
		}
		v[i], sum = f, sum+f
	}
	if math.Abs(sum-1) > 1e-9 {
		return mix{}, fmt.Errorf("--cohd-mix %q: shares sum to %g, want 1", s, sum)
	}
	return mix{v[0], v[1], v[2]}, nil
}

// freshConfig is the fresh request for engine × app × seed: a distinct
// digest that simulates and then writes a cache entry and a manifest. Its
// golden key names the same triple.
func freshConfig(engine, app string, seed int64) sim.RunConfig {
	c := sim.RunConfig{Engine: engine, Workload: app, Seed: seed, Length: freshAccesses}
	switch engine {
	case sim.EngineDirectory:
		c.Policy, c.CacheBytes = "basic", layerCacheBytes
	case sim.EngineBus:
		c.Protocol, c.CacheBytes = "adaptive", layerCacheBytes
	case sim.EngineTiming:
		c.Policy = "basic"
	}
	return c
}

var (
	freshEngines = []string{sim.EngineDirectory, sim.EngineBus, sim.EngineTiming}
	apps         = appNames()
)

func appNames() []string {
	var names []string
	for _, p := range workload.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// freshSeeds is the number of generator seeds per (engine, app) in the
// fresh-config universe, so the universe holds 3 × 5 × freshSeeds configs;
// a run's stream takes them in a seed-drawn order without repeating one.
const freshSeeds = 100

// replayVariants are the no_cache requests over the set-up's trace file;
// they read the daemon's shared decoded-segment cache.
var replayVariants = []sim.RunConfig{
	{Engine: sim.EngineDirectory, Policy: "basic", CacheBytes: layerCacheBytes},
	{Engine: sim.EngineDirectory, Policy: "conventional", CacheBytes: layerCacheBytes},
	{Engine: sim.EngineBus, Protocol: "adaptive", CacheBytes: layerCacheBytes},
	{Engine: sim.EngineBus, Protocol: "mesi", CacheBytes: layerCacheBytes},
}

func freshKey(engine, app string, seed int64) string {
	return fmt.Sprintf("%s/%s/%d", engine, app, seed)
}

func replayKey(traceSeed int64, v sim.RunConfig) string {
	return fmt.Sprintf("replay/%d/%s/%s%s", traceSeed, v.Engine, v.Policy, v.Protocol)
}

// request is one scheduled cohd request and what happened to it.
type request struct {
	kind string // "fresh", "repeat" or "replay"
	key  string // golden key of the result
	body []byte

	due, sent, done time.Time
	code            int
	err             error
	accesses        uint64
	cacheHit        bool
	digest          string // resultDigest of the response's result

	// Server-side timestamps from the job snapshot in the response.
	submitted, started, finished time.Time
}

// schedule draws the request stream for seed: n requests in due order.
func schedule(cfg *config, n int, traceSeed int64, tracePath string) ([]*request, error) {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x636f6864))
	universe := len(freshEngines) * len(apps) * freshSeeds
	order := rng.Perm(universe)
	nextFresh := 0
	var freshIdx []int // request indices of fresh requests, in order
	reqs := make([]*request, n)
	age := int(cfg.rate * repeatAge.Seconds())
	for i := range reqs {
		u := rng.Float64()
		var pool []int
		if u >= cfg.mix.fresh && u < cfg.mix.fresh+cfg.mix.repeat {
			// Fresh requests due at least repeatAge earlier.
			k := len(freshIdx)
			for k > 0 && freshIdx[k-1] > i-age {
				k--
			}
			pool = freshIdx[max(0, k-repeatPool):k]
		}
		switch {
		case u >= cfg.mix.fresh+cfg.mix.repeat:
			v := replayVariants[rng.IntN(len(replayVariants))]
			v.TraceFile = tracePath
			reqs[i] = &request{kind: "replay", key: replayKey(traceSeed, v), body: mustBody(v, true)}
		case len(pool) > 0:
			src := reqs[pool[rng.IntN(len(pool))]]
			reqs[i] = &request{kind: "repeat", key: src.key, body: src.body}
		default:
			if nextFresh == universe {
				return nil, fmt.Errorf("the stream needs more than the %d fresh configs of the golden universe; shorten --seconds", universe)
			}
			k := order[nextFresh]
			nextFresh++
			engine := freshEngines[k/(len(apps)*freshSeeds)]
			app := apps[k/freshSeeds%len(apps)]
			seed := int64(k%freshSeeds + 1)
			reqs[i] = &request{kind: "fresh", key: freshKey(engine, app, seed), body: mustBody(freshConfig(engine, app, seed), false)}
			freshIdx = append(freshIdx, i)
		}
	}
	return reqs, nil
}

func mustBody(c sim.RunConfig, noCache bool) []byte {
	b, err := json.Marshal(struct {
		Config  sim.RunConfig `json:"config"`
		Wait    bool          `json:"wait"`
		NoCache bool          `json:"no_cache,omitempty"`
	}{c, true, noCache})
	if err != nil {
		panic(err) // a config of strings and ints always marshals
	}
	return b
}

// cohdProc is a running cmd/cohd.
type cohdProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startCohd writes the replay trace into a fresh directory and starts cohd
// there with an empty result cache and manifest directory. It returns once
// /healthz answers 200, with the trace's path.
func startCohd(ctx context.Context, cfg *config, client *http.Client, ws int64) (*cohdProc, string, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "cohd-")
	if err != nil {
		return nil, "", err
	}
	tracePath := filepath.Join(dir, "cohd.mtr")
	if _, err := checkTrace(ctx, cfg, dir, "cohd.mtr", cohdTraceAccesses, ws, cfg.goldens.CohdTrace[ws]); err != nil {
		return nil, "", fmt.Errorf("cohd set-up: %w", err)
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "cohd.log"))
	if err != nil {
		return nil, "", err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(cfg.bin, "cohd"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", strconv.Itoa(cfg.nproc),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-manifest-dir", filepath.Join(dir, "manifests"))
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	p := &cohdProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	deadline := time.Now().Add(time.Minute)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := client.Get(p.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					fmt.Fprintf(os.Stderr, "perfbench: cohd pid %d serving %s\n", cmd.Process.Pid, p.base)
					return p, tracePath, nil
				}
			}
		}
		select {
		case <-p.exited:
			return nil, "", fmt.Errorf("cohd exited during start-up: %v (log in %s)", p.err, logf.Name())
		case <-ctx.Done():
			p.stop()
			return nil, "", ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, "", errors.New("cohd did not answer /healthz within a minute")
		}
	}
}

// stop drains cohd with SIGTERM and waits for it to exit, killing it if
// the drain takes too long.
func (p *cohdProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return errors.New("cohd ignored SIGTERM for 30 s and was killed")
	}
	return p.err
}

// procStat reads cohd's CPU time (user + system) and peak RSS from /proc.
func (p *cohdProc) procStat() (cpu time.Duration, hwm int64, err error) {
	pid := p.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clockTick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	cpu = time.Duration(ut+st) * clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return cpu, kb << 10, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cohdPass is one open-loop load on cohd and what it measured.
type cohdPass struct {
	reqs   []*request
	cpu    time.Duration      // cohd's CPU time over the load
	hwm    int64              // cohd's peak RSS after the load, bytes
	scrape map[string]float64 // /metrics after the load
}

// cohdLoad starts cohd and sends it an open-loop request stream for
// seconds at cfg.rate over at most cfg.conns keep-alive connections,
// drawn from cfg.seed. Every response is checked against the goldens; p
// counts the requests attempted and failed.
func cohdLoad(ctx context.Context, cfg *config, seconds time.Duration, t *tracer) (*cohdPass, *pass, error) {
	ws := workloadSeed(cfg.seed)
	n := int(cfg.rate * seconds.Seconds())
	if n*5/100 < 10 {
		return nil, nil, fmt.Errorf("cohd load: %d requests leave fewer than 10 beyond p95", n)
	}
	client := &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     cfg.conns,
			MaxIdleConnsPerHost: cfg.conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	sp := t.start("cohd.setup", 0, 0)
	proc, tracePath, err := startCohd(ctx, cfg, client, ws)
	t.finish(sp, 0)
	if err != nil {
		return nil, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			proc.stop()
		}
	}()

	reqs, err := schedule(cfg, n, ws, tracePath)
	if err != nil {
		return nil, nil, err
	}
	cpu0, _, err := proc.procStat()
	if err != nil {
		return nil, nil, err
	}
	period := time.Duration(float64(time.Second) / cfg.rate)
	t0 := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cfg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				r := reqs[i]
				r.due = t0.Add(time.Duration(i) * period)
				if d := time.Until(r.due); d > 0 {
					time.Sleep(d)
				}
				send(client, proc.base, r)
				traceRequest(t, r, i+1)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	cp := &cohdPass{reqs: reqs}
	cpu1, hwm, err := proc.procStat()
	if err != nil {
		return nil, nil, err
	}
	cp.cpu, cp.hwm = cpu1-cpu0, hwm
	if cp.scrape, err = scrapeMetrics(client, proc.base); err != nil {
		return nil, nil, err
	}
	stopped = true
	if err := proc.stop(); err != nil {
		return nil, nil, fmt.Errorf("cohd drain: %w", err)
	}

	p := &pass{attempted: n}
	for i, r := range reqs {
		if r.err == nil {
			r.err = check(cfg.goldens, r)
		}
		if r.err != nil {
			p.failed++
			if p.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: cohd request %d (%s %s) failed: %v\n", i, r.kind, r.key, r.err)
			}
		}
	}
	return cp, p, nil
}

// snapshot is the part of cohd's job snapshot the benchmark reads.
type snapshot struct {
	Status    string          `json:"status"`
	CacheHit  bool            `json:"cache_hit"`
	Error     string          `json:"error"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started"`
	Finished  *time.Time      `json:"finished"`
	Result    json.RawMessage `json:"result"`
}

// send posts one request and records its outcome. With wait:true the
// response is the job's snapshot at completion, the same document GET
// /v1/runs/{id} returns, so its server-side timestamps are read from it.
func send(client *http.Client, base string, r *request) {
	r.sent = time.Now()
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.code = resp.StatusCode
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, tail(body))
		return
	}
	var snap snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		r.err = fmt.Errorf("response: %w", err)
		return
	}
	if snap.Status != "done" {
		r.err = fmt.Errorf("status %q: %s", snap.Status, snap.Error)
		return
	}
	var res struct {
		Accesses uint64 `json:"accesses"`
	}
	if err := json.Unmarshal(snap.Result, &res); err != nil {
		r.err = fmt.Errorf("result: %w", err)
		return
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, snap.Result); err != nil {
		r.err = err
		return
	}
	r.accesses, r.cacheHit, r.digest = res.Accesses, snap.CacheHit, resultDigest(compact.Bytes())
	r.submitted = snap.Submitted
	if snap.Started != nil {
		r.started = *snap.Started
	}
	if snap.Finished != nil {
		r.finished = *snap.Finished
	}
}

// resultDigest is the golden form of one result: the first 128 bits of
// the SHA-256 of its canonical (compact) JSON bytes, in hex.
func resultDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// check compares a request's result digest with the golden digest for
// its config.
func check(g *goldens, r *request) error {
	want, ok := g.Cohd[r.key]
	if !ok {
		return fmt.Errorf("no golden for %s", r.key)
	}
	if r.digest != want {
		return fmt.Errorf("result digest %s, golden %s", r.digest, want)
	}
	return nil
}

// traceRequest records a finished request's spans: the whole request from
// its due time, the client-side wait for a free connection, and cohd's
// queue and run intervals.
func traceRequest(t *tracer, r *request, op int) {
	if t == nil {
		return
	}
	root := t.record("cohd.request", 0, op, r.due, r.done, 1)
	t.record("bench.client_wait", root, op, r.due, r.sent, 0)
	if !r.started.IsZero() {
		t.record("server.queue", root, op, r.submitted, r.started, 0)
		t.record("server.run", root, op, r.started, r.finished, int64(r.accesses))
	}
}

// scrapeMetrics reads cohd's Prometheus /metrics into name → value.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}
