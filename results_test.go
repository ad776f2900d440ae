package migratory

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateResults = flag.Bool("update-results", false, "rewrite the committed outputs under results/ instead of comparing them (make results)")

// committedOutputs lists each report committed under results/ with the
// command that prints it; results/README.md records the same commands.
var committedOutputs = []struct {
	file string
	cmd  []string
}{
	{"report.md", []string{"paper", "-length", "200000"}},
	{"table2.txt", []string{"migsim", "-table", "2"}},
	{"table3.txt", []string{"migsim", "-table", "3"}},
	{"bussim.txt", []string{"bussim", "-symmetry"}},
	{"exectime.txt", []string{"exectime"}},
	{"classify.txt", []string{"classify"}},
}

// TestCommittedOutputs builds the commands once, runs each committed
// report's command and requires its standard output to equal the file
// byte for byte. The reports cover every section of the evaluation, so
// this pins every exact shortcut a run takes (the per-App memo, the
// eviction-free bound, folded traces) end to end. With -update-results it
// rewrites the files instead.
func TestCommittedOutputs(t *testing.T) {
	dir := t.TempDir()
	bin := buildCommands(t, dir, "paper", "migsim", "bussim", "exectime", "classify")
	manifests := filepath.Join(dir, "manifests")
	for _, o := range committedOutputs {
		t.Run(o.file, func(t *testing.T) {
			args := append(slices.Clone(o.cmd[1:]), "-progress", "off", "-manifest-dir", manifests)
			cmd := exec.Command(filepath.Join(bin, o.cmd[0]), args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", strings.Join(o.cmd, " "), err, stderr.Bytes())
			}
			path := filepath.Join("results", o.file)
			if *updateResults {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("`%s` no longer prints %s: %s", strings.Join(o.cmd, " "), path, firstDiff(got, want))
			}
		})
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestExactCounters pins what the committed reports round away. A report
// prints messages in thousands, so TestCommittedOutputs cannot see a
// change of one message; this test pins exact numbers: the counters of the
// default `paper -length 20000` run's manifest, and the message totals
// summed over every Table 2 and Table 3 cell at that length.
func TestExactCounters(t *testing.T) {
	dir := t.TempDir()
	bin := buildCommands(t, dir, "paper")
	manifests := filepath.Join(dir, "manifests")
	cmd := exec.Command(filepath.Join(bin, "paper"), "-length", "20000", "-progress", "off", "-manifest-dir", manifests)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("paper -length 20000: %v\n%s", err, stderr.Bytes())
	}
	files, err := filepath.Glob(filepath.Join(manifests, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one manifest, found %v (%v)", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"accesses":        5120000,
		"transitions":     23889,
		"migrations":      84899,
		"cells_done":      311,
		"cells_reused":    108,
		"accesses_reused": 1700000,
		"accesses_folded": 1884992,
	} {
		if got[key] != want {
			t.Errorf("manifest %s = %v, want %v", key, got[key], want)
		}
	}

	opts := ExperimentOptions{Length: 20000}
	for _, tc := range []struct {
		name        string
		sweep       func(ExperimentOptions) (*Sweep, error)
		short, data int
	}{
		{"Table 2", Table2, 583266, 376383},
		{"Table 3", Table3, 329398, 241014},
	} {
		sw, err := tc.sweep(opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var short, data int
		for _, rows := range sw.Rows {
			for _, row := range rows {
				for _, c := range row.Cells {
					short += c.Msgs.Short
					data += c.Msgs.Data
				}
			}
		}
		if short != tc.short || data != tc.data {
			t.Errorf("%s messages summed over every cell: %d short + %d data, want %d + %d",
				tc.name, short, data, tc.short, tc.data)
		}
	}
}

// TestTracegenManifestCountsAccesses requires tracegen's manifest to count
// the accesses it writes: 20 000 for a generated MP3D trace, and 20 000
// again for converting an MTR2 copy of it (the v3 file without its index
// and footer) back to v3, which must give the original bytes.
func TestTracegenManifestCountsAccesses(t *testing.T) {
	dir := t.TempDir()
	bin := buildCommands(t, dir, "tracegen")
	v3 := filepath.Join(dir, "t.mtr")
	v2 := filepath.Join(dir, "t2.mtr")
	back := filepath.Join(dir, "t3.mtr")
	manifest := func(name string, args ...string) map[string]any {
		t.Helper()
		mdir := filepath.Join(dir, name)
		args = append(args, "-progress", "off", "-manifest-dir", mdir)
		cmd := exec.Command(filepath.Join(bin, "tracegen"), args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("tracegen %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		files, err := filepath.Glob(filepath.Join(mdir, "*.json"))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: want one manifest, found %v (%v)", name, files, err)
		}
		raw, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	check := func(name string, m map[string]any) {
		t.Helper()
		if m["accesses"] != float64(20000) {
			t.Errorf("%s: manifest accesses = %v, want 20000", name, m["accesses"])
		}
		if rate, _ := m["accesses_per_sec"].(float64); rate <= 0 {
			t.Errorf("%s: manifest accesses_per_sec = %v, want > 0", name, m["accesses_per_sec"])
		}
	}
	check("generate", manifest("generate", "-app", "MP3D", "-length", "20000", "-o", v3))

	raw, err := os.ReadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	indexOff := binary.LittleEndian.Uint64(raw[len(raw)-16:])
	if err := os.WriteFile(v2, append([]byte("MTR2"), raw[4:indexOff]...), 0o644); err != nil {
		t.Fatal(err)
	}
	check("convert", manifest("convert", "-in", v2, "-o", back))
	if got, err := os.ReadFile(back); err != nil || !bytes.Equal(got, raw) {
		t.Errorf("converting the MTR2 copy back to v3 changed the bytes (%v)", err)
	}
}
