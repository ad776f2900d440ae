package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSamplerSnapshotAndRates(t *testing.T) {
	var st RunStats
	s := NewSampler(&st, time.Hour) // never ticks; we snapshot by hand

	st.Accesses.Add(4096)
	st.Batches.Add(1)
	first := s.Snapshot()
	if first.Accesses != 4096 || first.Batches != 1 {
		t.Fatalf("counters not observed: %+v", first)
	}
	if first.AvgBatchFill != 4096 {
		t.Fatalf("AvgBatchFill = %v, want 4096", first.AvgBatchFill)
	}
	if first.Goroutines <= 0 || first.HeapAllocBytes == 0 {
		t.Fatalf("runtime stats missing: %+v", first)
	}

	st.Accesses.Add(4096)
	st.Batches.Add(1)
	time.Sleep(5 * time.Millisecond)
	second := s.Snapshot()
	if second.Rate <= 0 {
		t.Fatalf("instantaneous rate = %v, want > 0", second.Rate)
	}
	if second.CumulativeRate <= 0 {
		t.Fatalf("cumulative rate = %v, want > 0", second.CumulativeRate)
	}
	if got := s.Latest(); got.Accesses != second.Accesses {
		t.Fatalf("Latest() = %+v, want the second sample", got)
	}
}

func TestSamplerETA(t *testing.T) {
	var st RunStats
	s := NewSampler(&st, time.Hour)
	st.CellsTotal.Add(10)
	st.CellsDone.Add(5)
	time.Sleep(2 * time.Millisecond)
	sm := s.Snapshot()
	if sm.ETA <= 0 {
		t.Fatalf("ETA = %v, want > 0 at 5/10 cells", sm.ETA)
	}
	st.CellsDone.Add(5)
	if sm = s.Snapshot(); sm.ETA != 0 {
		t.Fatalf("ETA = %v after completion, want 0", sm.ETA)
	}
}

func TestSamplerStartStop(t *testing.T) {
	var st RunStats
	s := NewSampler(&st, time.Millisecond)
	got := make(chan Sample, 1)
	s.OnSample = func(sm Sample) {
		select {
		case got <- sm:
		default:
		}
	}
	s.Start()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("no periodic sample within 2s")
	}
	final := s.Stop()
	if final.Time.IsZero() {
		t.Fatal("Stop returned a zero sample")
	}
	s.Stop() // idempotent
}

func TestQueueDepthsTrimmed(t *testing.T) {
	var st RunStats
	if d := st.QueueDepths(); d != nil {
		t.Fatalf("idle QueueDepths = %v, want nil", d)
	}
	st.QueueDepth[0].Add(2)
	st.QueueDepth[3].Add(1)
	d := st.QueueDepths()
	if len(d) != 4 || d[0] != 2 || d[3] != 1 {
		t.Fatalf("QueueDepths = %v, want [2 0 0 1]", d)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "out.json")
	if err := WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second" {
		t.Fatalf("content = %q, want %q", data, "second")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestManifestWriteAndParse(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest("unit test/tool")
	m.Nodes = 32
	m.Seed = 7
	m.Extra = map[string]any{"table": 2}

	var st RunStats
	st.Accesses.Add(1000)
	st.CellsReused.Add(2)
	st.AccessesReused.Add(400)
	s := NewSampler(&st, time.Hour)
	time.Sleep(time.Millisecond)
	m.Finish(s.Snapshot(), nil)
	if m.Outcome != "ok" {
		t.Fatalf("Outcome = %q, want ok", m.Outcome)
	}
	if m.Accesses != 1000 || m.WallSeconds <= 0 || m.Throughput <= 0 || m.CellsReused != 2 || m.AccessesReused != 400 {
		t.Fatalf("outcome fields not sealed: %+v", m)
	}

	path, err := WriteManifest(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "manifest_unit-test-tool_") || !strings.HasSuffix(base, ".json") {
		t.Fatalf("manifest name %q not sanitized as expected", base)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Tool != m.Tool || back.Accesses != 1000 || back.Nodes != 32 || back.CellsReused != 2 || back.AccessesReused != 400 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestManifestFinishRecordsError(t *testing.T) {
	m := NewManifest("t")
	var st RunStats
	m.Finish(NewSampler(&st, time.Hour).Snapshot(), io.ErrUnexpectedEOF)
	if m.Outcome != io.ErrUnexpectedEOF.Error() {
		t.Fatalf("Outcome = %q, want the error string", m.Outcome)
	}
}

func TestServerEndpoints(t *testing.T) {
	var st RunStats
	st.Accesses.Add(12345)
	st.Batches.Add(3)
	st.CellsReused.Add(4)
	st.AccessesReused.Add(345)
	st.QueueDepth[1].Add(2)
	s := NewSampler(&st, time.Hour)
	man := NewManifest("srv-test")
	srv, err := StartServer("127.0.0.1:0", "srv-test", s, &man)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"migratory_accesses_total 12345",
		"migratory_batches_total 3",
		"migratory_cells_reused_total 4",
		"migratory_accesses_reused_total 345",
		"migratory_batch_fill_avg 4000",
		"migratory_shard_queue_depth{shard=\"1\"} 2",
		"go_goroutines",
		"# TYPE migratory_accesses_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get("/status")
	if code != 200 {
		t.Fatalf("/status status %d", code)
	}
	var status struct {
		Tool     string    `json:"tool"`
		Sample   Sample    `json:"sample"`
		Manifest *Manifest `json:"manifest"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if status.Tool != "srv-test" || status.Sample.Accesses != 12345 || status.Manifest == nil {
		t.Fatalf("/status payload wrong: %s", body)
	}

	if code, body = get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars = %d", code)
	}
	if code, _ = get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

func TestStartRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	var progress strings.Builder
	run, err := StartRun(RunConfig{
		Tool:        "life",
		Addr:        "127.0.0.1:0",
		Interval:    time.Millisecond,
		ManifestDir: dir,
		Progress:    &progress,
		Manifest:    NewManifest("life"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.ServerAddr() == "" {
		t.Fatal("server did not start")
	}
	run.Stats().Accesses.Add(999)
	time.Sleep(20 * time.Millisecond) // let a few samples fire

	path, err := run.Close(nil)
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("no manifest written")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Accesses != 999 || m.Outcome != "ok" {
		t.Fatalf("manifest outcome wrong: %+v", m)
	}
	if progress.Len() == 0 {
		t.Fatal("no progress lines written")
	}
	if p2, _ := run.Close(nil); p2 != "" {
		t.Fatal("second Close should be a no-op")
	}
}

func TestProgressLineFormat(t *testing.T) {
	var b strings.Builder
	writeProgress(&b, "migsim", Sample{
		CellsDone:      12,
		CellsTotal:     32,
		Rate:           1.8e6,
		HeapAllocBytes: 210 << 20,
		ETA:            42 * time.Second,
	})
	line := b.String()
	for _, want := range []string{"migsim:", "12/32 cells", "1.8M acc/s", "210 MB", "eta 42s"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q missing %q", line, want)
		}
	}
}
