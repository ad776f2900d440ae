package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestHermeticPass runs a short pass of every workload through run.sh, the
// way the benchmark is invoked, plus a short traced run (the one that
// starts cohd). It checks that each passes its output gate and reports
// every metric, that the repository's git status is unchanged, and that
// every cohd started was stopped: no cohd process survives and no address
// it served still accepts connections.
func TestHermeticPass(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	before, git := gitStatus(t, root)

	served := regexp.MustCompile(`cohd pid (\d+) serving http://(\S+)`)
	for _, tc := range []struct {
		workload, seconds, trace string
		metrics                  []struct{ name, unit string }
	}{
		{"paper-eval", "1", "0", endToEnd},
		{"mtr-replay", "1", "0", endToEnd},
		{"mtr-replay", "2", "1", perLayer},
	} {
		t.Run(tc.workload+"/trace="+tc.trace, func(t *testing.T) {
			cmd := exec.Command("bash", "perfbench/run.sh",
				"--workload", tc.workload, "--seed", "0", "--seconds", tc.seconds, "--trace", tc.trace)
			cmd.Dir = root
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("run.sh: %v\n%s", err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last stdout line is not a result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			if len(res.Metrics) != len(tc.metrics) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(tc.metrics))
			}
			for _, m := range tc.metrics {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("metric %s = %+v, want one in %s", m.name, v, m.unit)
				}
			}
			for _, match := range served.FindAllStringSubmatch(stderr.String(), -1) {
				if _, err := os.Stat("/proc/" + match[1]); err == nil {
					t.Errorf("cohd pid %s outlived the pass", match[1])
				}
				if c, err := net.DialTimeout("tcp", match[2], time.Second); err == nil {
					c.Close()
					t.Errorf("cohd address %s still accepts connections", match[2])
				}
			}
			if tc.trace == "1" && !served.MatchString(stderr.String()) {
				t.Error("the traced run reported no cohd instance")
			}
		})
	}

	if after, _ := gitStatus(t, root); git && after != before {
		t.Errorf("git status changed:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestBareCheckout runs the benchmark in a directory that holds only
// BENCHMARK.json and this directory's files, as a checkout without the
// program would. The build must fail, run.sh must exit non-zero without a
// result line, and no process it started may outlive it.
func TestBareCheckout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go command")
	}
	dir := t.TempDir()
	bench, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), bench, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !f.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "perfbench", f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	before := pids(t)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "bash", "perfbench/run.sh",
		"--workload", "paper-eval", "--seed", "0", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR=.bench_build")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("run.sh succeeded without the program:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("run.sh printed a result without the program:\n%s", stdout.String())
	}

	// A detached child lives on beside or shortly after run.sh, then turns
	// into a zombie until pid 1 reaps it. Look for it alive (it carries the
	// run's environment) or as a zombie, a few times over two seconds.
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		for pid := range pids(t) {
			if before[pid] || seen[pid] {
				continue
			}
			stat, err := os.ReadFile("/proc/" + pid + "/stat")
			if err != nil {
				continue
			}
			env, _ := os.ReadFile("/proc/" + pid + "/environ")
			comm, rest, _ := strings.Cut(string(stat), ") ")
			comm = comm[strings.IndexByte(comm, '(')+1:]
			zombie := strings.HasPrefix(rest, "Z")
			if bytes.Contains(env, []byte(dir)) || zombie && (comm == "go" || comm == "bash") {
				seen[pid] = true
				t.Errorf("process %s (%s) outlived run.sh", pid, comm)
			}
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// pids returns the ids of the processes now running.
func pids(t *testing.T) map[string]bool {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	set := map[string]bool{}
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err == nil {
			set[e.Name()] = true
		}
	}
	return set
}

// gitStatus returns `git status --porcelain` of root; ok is false when root
// is not a git checkout.
func gitStatus(t *testing.T, root string) (status string, ok bool) {
	cmd := exec.Command("git", "status", "--porcelain")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Logf("no git status (%v); skipping that check", err)
		return "", false
	}
	return string(out), true
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	root := tr.record("root", 0, 1, at(0), at(100), 0)
	tr.record("a", root, 1, at(10), at(30), 0)
	tr.record("b", root, 1, at(20), at(40), 0) // overlaps a
	tr.record("c", root, 1, at(90), at(120), 0)
	leaf := tr.record("leaf", 0, 2, at(0), at(7), 0)
	self := tr.self()
	if got := self[root]; got != 60 { // 100 - [10,40] - [90,100]
		t.Errorf("root self time %d, want 60", got)
	}
	if got := self[leaf]; got != 7 {
		t.Errorf("leaf self time %d, want 7", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
