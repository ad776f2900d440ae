package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"migratory/internal/sim"
)

// TestServeSmoke boots the real cohd binary and drives the acceptance
// scenario end to end: 50 concurrent submissions against a 4-deep queue
// must yield 429 overflow, every admitted run must complete with results
// bit-identical to an in-process sim.Run, a repeat submission must be
// served from the cache, goroutines must settle back after the storm, and
// SIGTERM must drain to a zero exit.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the cohd binary")
	}
	dir := t.TempDir()
	bin := buildCohd(t, dir)

	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-queue", "4",
		"-workers", "2",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-manifest-dir", filepath.Join(dir, "results"),
		"-drain-timeout", "30s",
	)
	var logs bytes.Buffer
	cmd.Stderr = &logs
	cmd.Stdout = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := waitForAddr(t, addrFile)
	client := &http.Client{Timeout: 30 * time.Second}

	cfg := func(seed int64) sim.RunConfig {
		return sim.RunConfig{
			Engine:   sim.EngineDirectory,
			Workload: "MP3D",
			Policy:   "aggressive",
			Length:   100_000,
			Seed:     seed,
		}
	}
	submit := func(c sim.RunConfig, wait bool) (*http.Response, error) {
		body, _ := json.Marshal(map[string]any{"config": c, "wait": wait})
		return client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	}

	// A known run first: the daemon's result bytes must match an
	// in-process Run of the same config exactly.
	resp, err := submit(cfg(1000), true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("warm-up run status = %d: %s", resp.StatusCode, b)
	}
	var warm struct {
		Status   string          `json:"status"`
		CacheHit bool            `json:"cache_hit"`
		Result   json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	direct, err := sim.Run(context.Background(), cfg(1000))
	if err != nil {
		t.Fatal(err)
	}
	dj, _ := json.Marshal(direct)
	var got bytes.Buffer
	if err := json.Compact(&got, warm.Result); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(dj) {
		t.Fatalf("daemon result diverges from direct run:\n%s\n%s", got.String(), dj)
	}

	baseline := readGauge(t, client, base, "go_goroutines")

	// The storm: 50 concurrent distinct submissions against 2 workers + a
	// 4-deep queue. Admission must overflow (429) without failing any
	// admitted run.
	const storm = 50
	var (
		mu       sync.Mutex
		accepted []string
		rejected int
	)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp, err := submit(cfg(seed), false)
			if err != nil {
				t.Errorf("submit seed=%d: %v", seed, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted, http.StatusOK:
				var snap struct {
					ID string `json:"id"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
					t.Errorf("decoding accept: %v", err)
					return
				}
				mu.Lock()
				accepted = append(accepted, snap.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("submit seed=%d status = %d: %s", seed, resp.StatusCode, b)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if rejected == 0 {
		t.Error("storm produced no 429s: admission control never engaged")
	}
	if len(accepted) == 0 {
		t.Fatal("storm produced no admitted runs")
	}
	t.Logf("storm: %d accepted, %d rejected", len(accepted), rejected)

	// Every admitted run completes.
	for _, id := range accepted {
		resp, err := client.Get(base + "/v1/runs/" + id + "?wait=1")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || snap.Status != "done" {
			t.Fatalf("admitted run %s ended %d/%s (%s)", id, resp.StatusCode, snap.Status, snap.Error)
		}
	}

	// The warm-up config again: a cache hit, immediate and counted.
	resp, err = submit(cfg(1000), false)
	if err != nil {
		t.Fatal(err)
	}
	var hit struct {
		Status   string `json:"status"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hit.Status != "done" || !hit.CacheHit {
		t.Fatalf("repeat submission was not a cache hit: %d %+v", resp.StatusCode, hit)
	}
	if hits := readGauge(t, client, base, "cohd_cache_hits_total"); hits < 1 {
		t.Fatalf("cohd_cache_hits_total = %v after a cache hit", hits)
	}

	// Goroutines settle back to the pre-storm level: no per-request leaks.
	settled := false
	deadline := time.Now().Add(10 * time.Second)
	var now float64
	for time.Now().Before(deadline) {
		now = readGauge(t, client, base, "go_goroutines")
		if now <= baseline+8 {
			settled = true
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if !settled {
		t.Errorf("goroutines did not settle: baseline %v, now %v", baseline, now)
	}

	// Graceful drain: SIGTERM exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("cohd exit after SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(40 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("cohd did not drain after SIGTERM\n%s", logs.String())
	}
}

// TestServeSmokeEarlySIGTERM signals cohd the moment its -addr-file
// appears — the earliest a script can know the daemon is up — and expects
// the same clean drain as a late SIGTERM: exit 0 and a written manifest.
func TestServeSmokeEarlySIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the cohd binary")
	}
	dir := t.TempDir()
	bin := buildCohd(t, dir)
	addrFile := filepath.Join(dir, "addr")
	manifests := filepath.Join(dir, "results")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-cache-dir", "",
		"-manifest-dir", manifests,
	)
	var logs bytes.Buffer
	cmd.Stderr = &logs
	cmd.Stdout = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Spin rather than sleep: the signal must land within microseconds of
	// the file appearing to hit the daemon's start-up path.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := os.Stat(addrFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cohd never wrote its address file\n%s", logs.String())
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("cohd exit after early SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cohd did not exit after early SIGTERM\n%s", logs.String())
	}
	written, err := filepath.Glob(filepath.Join(manifests, "manifest_cohd_*.json"))
	if err != nil || len(written) != 1 {
		t.Fatalf("manifests after early SIGTERM = %v (%v), want one\n%s", written, err, logs.String())
	}
}

// buildCohd builds the cohd binary into dir and returns its path.
func buildCohd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "cohd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cohd: %v\n%s", err, out)
	}
	return bin
}

// waitForAddr polls for the daemon's -addr-file and returns the base URL.
func waitForAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err == nil && len(bytes.TrimSpace(data)) > 0 {
			return "http://" + strings.TrimSpace(string(data))
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("cohd never wrote its address file")
	return ""
}

// readGauge scrapes one numeric metric from /metrics.
func readGauge(t *testing.T, client *http.Client, base, name string) float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}
