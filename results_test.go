package migratory

import (
	"bytes"
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
