package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"migratory/internal/sim"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// encodeTrace returns accs as a v3 .mtr image.
func encodeTrace(t *testing.T, accs []trace.Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.Header{BlockSize: 16, PageSize: sim.PageSize, Nodes: 16})
	if _, err := trace.Copy(w, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func traceAccesses(t *testing.T, n int) []trace.Access {
	t.Helper()
	prof, err := workload.ProfileByName("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Generate(prof, 16, 1993, n)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

func traceCfg(path string) sim.RunConfig {
	return sim.RunConfig{Engine: sim.EngineDirectory, TraceFile: path, Policy: "basic", CacheBytes: 16 << 10}
}

// TestSubmitRejectsUnreadableTrace: a trace_file no run could read is
// refused at admission with 400 and its typed message, never queued to
// fail with a 500. A pre-index (MTR2) trace's message names the converter.
func TestSubmitRejectsUnreadableTrace(t *testing.T) {
	dir := t.TempDir()
	img := encodeTrace(t, traceAccesses(t, 5_000))
	mtr2 := filepath.Join(dir, "old.mtr")
	// Cutting the v3 index and footer and swapping the magic leaves the
	// byte-identical MTR2 record stream.
	indexOff := binary.LittleEndian.Uint64(img[len(img)-16:])
	if err := os.WriteFile(mtr2, append([]byte("MTR2"), img[4:indexOff]...), 0o644); err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.mtr")
	if err := os.WriteFile(cut, img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name, path string
		sentinel   error
		message    string
	}{
		{"missing", filepath.Join(dir, "absent.mtr"), fs.ErrNotExist, "no such file"},
		{"MTR2", mtr2, trace.ErrNoIndex, trace.ConvertCommand},
		{"truncated v3", cut, trace.ErrTruncated, "truncated"},
	} {
		if _, err := s.Submit(traceCfg(tc.path), 0, false); !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: Submit = %v, want %v", tc.name, err, tc.sentinel)
		}
		body, _ := json.Marshal(submitRequest{Config: traceCfg(tc.path), Wait: true})
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e errorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || !strings.Contains(e.Error, tc.message) {
			t.Errorf("%s: POST /v1/runs = %d %s, want 400 naming %q", tc.name, resp.StatusCode, raw, tc.message)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused requests left %d jobs behind", len(jobs))
	}
}

// TestCacheMissesRewrittenTrace: the result cache keys a trace by its
// content, not its size and mtime. Rewriting the file with one record's
// kind flipped (same byte length) and restoring the old mtime must miss
// the cache and serve the new trace's result.
func TestCacheMissesRewrittenTrace(t *testing.T) {
	accs := traceAccesses(t, 5_000)
	before := encodeTrace(t, accs)
	var after []byte
	for i := range accs {
		mut := append([]trace.Access(nil), accs...)
		mut[i].Kind ^= 1
		if img := encodeTrace(t, mut); len(img) == len(before) {
			after = img
			break
		}
	}
	if after == nil {
		t.Fatal("no single kind flip keeps the encoded length")
	}

	path := filepath.Join(t.TempDir(), "t.mtr")
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	run := func() Snapshot {
		t.Helper()
		j, err := s.Submit(traceCfg(path), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		snap := s.Snapshot(j)
		if snap.Status != StatusDone {
			t.Fatalf("run: %+v", snap)
		}
		return snap
	}
	first := run()

	if err := os.WriteFile(path, after, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, old.ModTime(), old.ModTime()); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != old.Size() || !fi.ModTime().Equal(old.ModTime()) {
		t.Fatalf("rewrite changed size or mtime (%v): the test needs both kept", err)
	}
	second := run()
	if second.CacheHit || second.Digest == first.Digest {
		t.Fatalf("rewritten trace served from the cache (digest %s)", second.Digest)
	}
	want, err := sim.Run(nil, traceCfg(path))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if compactJSON(t, second.Result) != compactJSON(t, wantJSON) {
		t.Fatal("rewritten trace's result differs from a direct run over it")
	}
	if bytes.Equal(first.Result, second.Result) {
		t.Fatal("the kind flip did not change the result; the test proves nothing")
	}
}
