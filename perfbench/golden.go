package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/sim"
	"migratory/internal/workload"
)

// The batch workloads and the layer counts have goldens for goldenSeeds
// workload seeds: --seed n runs workload seed firstSeed + (n mod
// goldenSeeds), so every seed the benchmark is given is checked against a
// committed digest. firstSeed is the repository's default seed.
const (
	firstSeed   = 1993
	goldenSeeds = 8
)

func workloadSeed(seed int64) int64 {
	return firstSeed + (seed%goldenSeeds+goldenSeeds)%goldenSeeds
}

// goldens are the committed SHA-256 digests every operation is checked
// against. Simulated statistics are deterministic, so any difference is a
// correctness failure. Regenerate with -regen-goldens only for a change
// that is meant to alter simulated results.
type goldens struct {
	// Paper is the digest of the whole cmd/paper report, per workload seed.
	Paper map[int64]string `json:"paper_eval_report"`
	// MTRTrace and MTRReport are the mtr-replay trace file and report.
	MTRTrace  map[int64]string `json:"mtr_replay_trace"`
	MTRReport map[int64]string `json:"mtr_replay_report"`
	// CohdTrace is the trace file the cohd load's no_cache requests replay.
	CohdTrace map[int64]string `json:"cohd_open_trace"`
	// Counts are the traced run's exact counts.
	Counts map[int64]counts `json:"layer_counts"`
	// Cohd maps each request's config key (see freshKey and replayKey) to
	// resultDigest of its result bytes. Snapshot fields carry timestamps
	// and IDs, so only the result is pinned.
	Cohd map[string]string `json:"cohd_open_results"`
}

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	keys := universeKeys()
	for i := int64(0); i < goldenSeeds; i++ {
		ws := firstSeed + i
		for _, v := range replayVariants {
			keys = append(keys, replayKey(ws, v))
		}
		_, ok := g.Counts[ws]
		if g.Paper[ws] == "" || g.MTRTrace[ws] == "" || g.MTRReport[ws] == "" || g.CohdTrace[ws] == "" || !ok {
			return nil, fmt.Errorf("goldens.json: workload seed %d incomplete; run -regen-goldens", ws)
		}
	}
	for _, k := range keys {
		if g.Cohd[k] == "" {
			return nil, fmt.Errorf("goldens.json: no cohd golden for %s; run -regen-goldens", k)
		}
	}
	return &g, nil
}

// universeKeys lists the golden keys of every fresh cohd config.
func universeKeys() []string {
	var keys []string
	for _, e := range freshEngines {
		for _, a := range apps {
			for s := int64(1); s <= freshSeeds; s++ {
				keys = append(keys, freshKey(e, a, s))
			}
		}
	}
	return keys
}

func paperEvalArgs(cfg *config, ws int64) []string {
	return []string{"-parallelism", strconv.Itoa(cfg.nproc), "-shards", "1", "-seed", strconv.FormatInt(ws, 10)}
}

// mtrReplayArgs replays mp3d.mtr from the op's directory. The report's
// header names the trace path, so it stays relative and fixed.
func mtrReplayArgs(cfg *config) []string {
	return []string{"-trace", "mp3d.mtr", "-shards", strconv.Itoa(cfg.nproc), "-parallelism", "1"}
}

// regenGoldens recomputes goldens.json from the current code: the batch
// reports through the real binaries, the cohd results in process
// through sim.Run (the bytes cohd serves are those of a direct call).
func regenGoldens(ctx context.Context, cfg *config) error {
	g := &goldens{
		Paper: map[int64]string{}, MTRTrace: map[int64]string{}, MTRReport: map[int64]string{},
		CohdTrace: map[int64]string{}, Counts: map[int64]counts{}, Cohd: map[string]string{},
	}
	type job struct {
		key string
		rc  sim.RunConfig
	}
	var jobs []job
	for _, e := range freshEngines {
		for _, a := range apps {
			for s := int64(1); s <= freshSeeds; s++ {
				jobs = append(jobs, job{freshKey(e, a, s), freshConfig(e, a, s)})
			}
		}
	}
	for i := int64(0); i < goldenSeeds; i++ {
		ws := firstSeed + i
		dir, err := os.MkdirTemp(cfg.tmp, "regen-")
		if err != nil {
			return err
		}
		r, err := paperOp(ctx, cfg, dir, nil, "", 0, paperEvalArgs(cfg, ws))
		if err != nil {
			return err
		}
		g.Paper[ws] = r.digest
		if _, g.MTRTrace[ws], err = writeTrace(ctx, cfg, dir, "mp3d.mtr", mtrAccesses, ws); err != nil {
			return err
		}
		if r, err = paperOp(ctx, cfg, dir, nil, "", 0, mtrReplayArgs(cfg)); err != nil {
			return err
		}
		g.MTRReport[ws] = r.digest
		if _, g.CohdTrace[ws], err = writeTrace(ctx, cfg, dir, "cohd.mtr", cohdTraceAccesses, ws); err != nil {
			return err
		}
		for _, v := range replayVariants {
			v.TraceFile = filepath.Join(dir, "cohd.mtr")
			jobs = append(jobs, job{replayKey(ws, v), v})
		}
		c, err := engineCounts(ctx, ws)
		if err != nil {
			return err
		}
		c.SegcacheMisses = r.cache.Misses
		g.Counts[ws] = c
		fmt.Fprintf(os.Stderr, "perfbench: goldens for workload seed %d done\n", ws)
	}

	// The cohd results, on nproc workers.
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, cfg.nproc)
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || errs[w] != nil {
					return
				}
				d, err := simDigest(ctx, jobs[i].rc)
				if err != nil {
					errs[w] = fmt.Errorf("%s: %w", jobs[i].key, err)
					return
				}
				mu.Lock()
				g.Cohd[jobs[i].key] = d
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.root, "perfbench", "goldens.json"), append(data, '\n'), 0o644)
}

// simDigest runs one cohd request config in process and returns the
// golden digest of its result.
func simDigest(ctx context.Context, rc sim.RunConfig) (string, error) {
	res, err := sim.Run(ctx, rc)
	if err != nil {
		return "", err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return resultDigest(out), nil
}

// engineCounts computes the traced run's exact engine counts for ws.
func engineCounts(ctx context.Context, ws int64) (counts, error) {
	prof, err := workload.ProfileByName("MP3D")
	if err != nil {
		return counts{}, err
	}
	accs, err := workload.Generate(prof, nodes, ws, layerAccesses)
	if err != nil {
		return counts{}, err
	}
	pl := placement.UsageBased(accs, memory.MustGeometry(16, sim.PageSize), nodes)
	c, _, err := engineLayers(ctx, nil, 0, 0, accs, pl)
	return c, err
}
