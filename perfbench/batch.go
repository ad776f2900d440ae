package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"migratory/internal/telemetry"
)

const (
	// mtrAccesses is the length of the mtr-replay trace: 2 M MP3D
	// accesses, about 7 MB as indexed v3, replayed by 50 cells per op.
	mtrAccesses = 2_000_000
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 7
	// setupProbes is how many extra paper-eval set-ups a run samples.
	setupProbes = 20
)

// opRun is what the benchmark measures about one cmd/paper process.
type opRun struct {
	wall      time.Duration // exec to exit
	firstLine time.Duration // exec to the report's first line
	cpu       time.Duration // user + system CPU of the process
	maxRSS    int64         // bytes
	accesses  uint64        // simulated accesses, from the op's manifest
	cache     *telemetry.CacheStats
	digest    string // SHA-256 of the whole report
}

// paperEval runs `cmd/paper` over the built-in workloads: the complete
// evaluation, 130 M simulated accesses per op.
func paperEval(ctx context.Context, cfg *config, seconds time.Duration, t *tracer) (*pass, error) {
	ws := workloadSeed(cfg.seed)
	dir, err := os.MkdirTemp(cfg.tmp, "paper-eval-")
	if err != nil {
		return nil, err
	}
	// Set-up is the exec until the report's first line: a few milliseconds,
	// so besides every op it is sampled by setupProbes processes that are
	// stopped once they print it.
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, err := firstLine(ctx, cfg, dir, paperEvalArgs(cfg, ws))
		if err != nil {
			return nil, fmt.Errorf("paper-eval set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	p, runs := batchOps(ctx, cfg, seconds, t, "paper-eval.op", dir, cfg.goldens.Paper[ws], paperEvalArgs(cfg, ws))
	for _, r := range runs {
		setups = append(setups, r.firstLine.Seconds())
	}
	p.metrics = batchMetrics(runs, median(setups))
	return p, nil
}

// firstLine starts cmd/paper, waits for the report's first line, then
// kills the process and waits for it; it returns the time to that line.
func firstLine(ctx context.Context, cfg *config, dir string, args []string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(cfg.bin, "paper"), append(args, "-manifest-dir", "", "-progress", "off")...)
	cmd.Dir = dir
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	_, rerr := bufio.NewReader(stdout).ReadBytes('\n')
	d := time.Since(start)
	_ = cmd.Process.Kill()
	_ = cmd.Wait() // killed on purpose
	if rerr != nil {
		return 0, fmt.Errorf("reading the first report line: %w", rerr)
	}
	return d, nil
}

// mtrReplay writes an indexed v3 trace with `cmd/tracegen` (the set-up,
// repeated setupReps times) and replays it with `cmd/paper -trace`.
func mtrReplay(ctx context.Context, cfg *config, seconds time.Duration, t *tracer) (*pass, error) {
	ws := workloadSeed(cfg.seed)
	dir, err := os.MkdirTemp(cfg.tmp, "mtr-replay-")
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		sp := t.start("tracegen.write", 0, i+1)
		d, err := checkTrace(ctx, cfg, dir, "mp3d.mtr", mtrAccesses, ws, cfg.goldens.MTRTrace[ws])
		t.finish(sp, mtrAccesses)
		if err != nil {
			return nil, fmt.Errorf("mtr-replay set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	p, runs := batchOps(ctx, cfg, seconds, t, "mtr-replay.op", dir, cfg.goldens.MTRReport[ws], mtrReplayArgs(cfg))
	p.metrics = batchMetrics(runs, median(setups))
	if len(runs) > 0 {
		p.mtrOp = &runs[len(runs)-1]
	}
	return p, nil
}

// batchOps runs cmd/paper ops back to back until seconds have passed (at
// least one), checking each report against the golden digest want.
func batchOps(ctx context.Context, cfg *config, seconds time.Duration, t *tracer,
	name, dir, want string, args []string) (*pass, []opRun) {
	p := &pass{}
	var runs []opRun
	start := time.Now()
	for p.attempted == 0 || time.Since(start) < seconds {
		if ctx.Err() != nil {
			break
		}
		p.attempted++
		r, err := paperOp(ctx, cfg, dir, t, name, p.attempted, args)
		if err == nil && r.digest != want {
			err = fmt.Errorf("report digest %s, golden %q", r.digest, want)
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %d failed: %v\n", name, p.attempted, err)
			continue
		}
		runs = append(runs, r)
	}
	return p, runs
}

// paperOp runs one cmd/paper process in dir and measures it.
func paperOp(ctx context.Context, cfg *config, dir string, t *tracer, name string, op int, args []string) (opRun, error) {
	var r opRun
	md, err := os.MkdirTemp(dir, "manifest-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(md)
	args = append(args[:len(args):len(args)], "-manifest-dir", md, "-progress", "off")
	cmd := exec.CommandContext(ctx, filepath.Join(cfg.bin, "paper"), args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}

	sp := t.start(name, 0, op)
	defer func() { t.finish(sp, int64(r.accesses)) }()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	h := sha256.New()
	br := bufio.NewReader(stdout)
	first, rerr := br.ReadBytes('\n')
	r.firstLine = time.Since(start)
	t.record("paper.first_line", sp, op, start, start.Add(r.firstLine), 0)
	h.Write(first)
	if rerr == nil {
		_, rerr = io.Copy(h, br)
	}
	werr := cmd.Wait()
	r.wall = time.Since(start)
	if werr != nil {
		return r, fmt.Errorf("paper %v: %v: %s", args, werr, tail(stderr.Bytes()))
	}
	if rerr != nil {
		return r, fmt.Errorf("reading report: %w", rerr)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	r.maxRSS = ru.Maxrss * 1024

	man, err := readManifest(md)
	if err != nil {
		return r, err
	}
	r.accesses, r.cache = man.Accesses, man.TraceCache
	if r.accesses == 0 {
		return r, fmt.Errorf("manifest in %s reports no simulated accesses", md)
	}
	return r, nil
}

// batchMetrics reduces a workload's ops to the end-to-end metrics, each
// the median over ops. A run holds only a handful of ~5 s ops, too few for
// any percentile above the median to mean anything.
func batchMetrics(runs []opRun, setup float64) map[string]float64 {
	var wall, cpu, rss []float64
	for _, r := range runs {
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/float64(r.accesses))
		rss = append(rss, float64(r.maxRSS)/(1<<20))
	}
	return map[string]float64{
		"setup_s":           setup,
		"wall_s":            median(wall),
		"cpu_ns_per_access": median(cpu),
		"peak_rss_mb":       median(rss),
	}
}

// writeTrace runs `cmd/tracegen` to write an MP3D trace of n accesses into
// dir/name and returns the write's wall time and the file's SHA-256.
func writeTrace(ctx context.Context, cfg *config, dir, name string, n int, seed int64) (time.Duration, string, error) {
	md, err := os.MkdirTemp(dir, "manifest-")
	if err != nil {
		return 0, "", err
	}
	defer os.RemoveAll(md)
	cmd := exec.CommandContext(ctx, filepath.Join(cfg.bin, "tracegen"),
		"-app", "MP3D", "-length", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10),
		"-o", name, "-manifest-dir", md, "-progress", "off")
	cmd.Dir = dir
	start := time.Now()
	out, err := cmd.CombinedOutput()
	d := time.Since(start)
	if err != nil {
		return 0, "", fmt.Errorf("tracegen: %v: %s", err, tail(out))
	}
	sum, err := fileDigest(filepath.Join(dir, name))
	return d, sum, err
}

// checkTrace writes a trace like writeTrace and fails unless the file
// matches the golden digest want.
func checkTrace(ctx context.Context, cfg *config, dir, name string, n int, seed int64, want string) (time.Duration, error) {
	d, got, err := writeTrace(ctx, cfg, dir, name, n, seed)
	if err == nil && got != want {
		err = fmt.Errorf("trace %s digest %s, golden %q", name, got, want)
	}
	return d, err
}

// manifest is the part of a telemetry run manifest the benchmark reads.
type manifest struct {
	Accesses   uint64                `json:"accesses"`
	TraceCache *telemetry.CacheStats `json:"trace_cache"`
	Outcome    string                `json:"outcome"`
}

// readManifest loads the single manifest an op wrote into dir.
func readManifest(dir string) (manifest, error) {
	var m manifest
	files, err := filepath.Glob(filepath.Join(dir, "manifest_*.json"))
	if err != nil {
		return m, err
	}
	if len(files) != 1 {
		return m, fmt.Errorf("want one manifest in %s, found %d", dir, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("manifest %s: %w", files[0], err)
	}
	if m.Outcome != "ok" {
		return m, fmt.Errorf("manifest %s: outcome %q", files[0], m.Outcome)
	}
	return m, nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tail keeps the end of a process's diagnostic output for error messages.
func tail(b []byte) []byte {
	const keep = 2000
	if len(b) > keep {
		return b[len(b)-keep:]
	}
	return b
}
