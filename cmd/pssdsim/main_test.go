package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from this run")

// The CLI smoke test: full deterministic runs — scaled pnSSD+split
// device, spatial GC, invariant checker attached — compared byte for
// byte against committed transcripts. Any behavior drift in the
// simulator, the report formatting, or the checker wiring shows up as
// a golden diff. The second run adds -trace, which attaches the trace
// recorder ahead of the checker and pins the per-bus utilization
// heatmap; the trace file's temporary path is masked in its transcript.
func TestGoldenOutput(t *testing.T) {
	args := []string{"-arch", "pnssd+split", "-preset", "rocksdb-0", "-gc", "spgc", "-requests", "300", "-seed", "7", "-check"}
	dir := t.TempDir()
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"testdata/golden_rocksdb0_spgc.txt", args},
		{"testdata/golden_rocksdb0_spgc_trace.txt", append(append([]string(nil), args...), "-trace", filepath.Join(dir, "trace.json"))},
	} {
		var buf bytes.Buffer
		if err := run(c.args, &buf, io.Discard); err != nil {
			t.Fatalf("run %v: %v", c.args, err)
		}
		got := []byte(strings.ReplaceAll(buf.String(), dir, "$TMPDIR"))
		if *update {
			if err := os.WriteFile(c.golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("output differs from %s (rerun with -update to accept):\ngot:\n%s\nwant:\n%s", c.golden, got, want)
		}
		if !strings.Contains(buf.String(), "0 violations") {
			t.Errorf("%s: checked run did not report zero violations", c.golden)
		}
	}
}

func TestListFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rocksdb-0", "exchange-1", "web-0"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list output missing preset %s", name)
		}
	}
}

func TestBadFlagsReturnErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-arch", "bogus"},
		{"-gc", "bogus"},
		{"-policy", "bogus"},
		{"-synthetic", "bogus"},
		{"-preset", "bogus", "-requests", "10"},
	} {
		if err := run(args, &bytes.Buffer{}, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// -cpuprofile and -memprofile write non-empty profiles, and the cost line
// goes to stderr only: stdout stays the report the golden test pins.
func TestProfilesAndCostLine(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	args := []string{"-preset", "rocksdb-0", "-requests", "100", "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", path, err)
		}
	}
	line := stderr.String()
	if strings.Count(line, "\n") != 1 || !strings.HasPrefix(line, "pssdsim: wall ") {
		t.Fatalf("stderr is not one cost line: %q", line)
	}
	for _, want := range []string{" events, ", " events/s, ", " heap bytes allocated"} {
		if !strings.Contains(line, want) {
			t.Errorf("cost line %q lacks %q", line, want)
		}
	}
	if strings.Contains(stdout.String(), "pssdsim:") {
		t.Error("cost line leaked into stdout")
	}
}
