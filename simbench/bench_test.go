package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/ssd"
)

// short returns the workload cut to n requests, for tests.
func short(w spec, n int) spec {
	w.requests = n
	return w
}

func untraced(t *testing.T, w spec, seed int64) outcome {
	t.Helper()
	o, _, err := w.simulate(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestTracedRunIsPassive checks that the spans, the fabric wrapper and
// the observers change nothing the simulation computes.
func TestTracedRunIsPassive(t *testing.T) {
	for _, w := range specs {
		w := short(w, 3000)
		t.Run(w.name, func(t *testing.T) {
			ref := untraced(t, w, 7)
			o, p, err := w.tracedRun(7)
			if err != nil {
				t.Fatal(err)
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.simStats != ref.simStats {
				t.Fatalf("traced run diverged:\n  traced   %+v\n  untraced %+v", o.simStats, ref.simStats)
			}
			if err := p.accounted(o.wallNs); err != nil {
				t.Fatal(err)
			}
			var ops int64
			for _, st := range p.fab.ops {
				ops += st.count
			}
			if ops == 0 || p.h.holds == 0 || p.die.holds == 0 || p.nvme.holds == 0 || p.soc.dram.holds == 0 {
				t.Fatalf("probes saw nothing: ops=%d h=%d die=%d nvme=%d dram=%d", ops, p.h.holds, p.die.holds, p.nvme.holds, p.soc.dram.holds)
			}
		})
	}
}

// TestNewCustomMatchesNew checks that the fabric constructors the traced
// run hands to ssd.NewCustom rebuild exactly the device ssd.New builds.
func TestNewCustomMatchesNew(t *testing.T) {
	for _, arch := range []ssd.Arch{ssd.ArchPSSD, ssd.ArchPnSSD, ssd.ArchPnSSDSplit} {
		for _, base := range specs {
			w := short(base, 2000)
			w.arch = arch
			t.Run(arch.String()+"/"+w.name, func(t *testing.T) {
				ref := untraced(t, w, 3)
				st, err := w.prepare(3, func(cfg ssd.Config) *ssd.SSD {
					return ssd.NewCustom(w.arch, cfg, w.baseFabric(cfg.BusMTps))
				})
				if err != nil {
					t.Fatal(err)
				}
				o := w.drive(st, st.s.Host.Submit, st.s.Drain, nil)
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.simStats != ref.simStats {
					t.Fatalf("NewCustom diverged from New:\n  custom %+v\n  new    %+v", o.simStats, ref.simStats)
				}
			})
		}
	}
}

// TestDriveMatchesHostLoops checks the benchmark's own open and closed
// loops against Host.Replay and Host.RunClosedLoop.
func TestDriveMatchesHostLoops(t *testing.T) {
	for _, w := range specs {
		w := short(w, 2000)
		t.Run(w.name, func(t *testing.T) {
			ref := untraced(t, w, 5)
			st, err := w.prepare(5, func(cfg ssd.Config) *ssd.SSD { return ssd.New(w.arch, cfg) })
			if err != nil {
				t.Fatal(err)
			}
			if w.preset != "" {
				st.s.Host.MustReplay(st.reqs)
			} else {
				st.s.Host.RunClosedLoop(func(i int) host.Request { return st.reqs[i] }, w.outstanding, len(st.reqs))
			}
			end := st.s.Drain()
			got := simStats{requests: len(st.reqs), completed: int(st.s.Metrics().TotalRequests()), end: end, events: st.s.Engine.EventsFired()}
			got.collect(st.s)
			got.flash = flashCounts(st.s)
			ref.lastArrival = 0
			if got != ref.simStats {
				t.Fatalf("benchmark loop diverged from the host's:\n  host  %+v\n  bench %+v", got, ref.simStats)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	r := &recorder{spans: []span{
		{kind: spanDrain, parent: -1, start: 0, end: 100},
		{kind: spanDone + spanKind(opErase), parent: 0, start: 10, end: 60},
		{kind: spanIssue + spanKind(opWrite), parent: 1, start: 20, end: 30},
		{kind: spanSubmit, parent: 1, start: 40, end: 45},
		{kind: spanDone + spanKind(opRead), parent: 0, start: 70, end: 80},
	}}
	count, self := r.selfTimes()
	want := map[spanKind]int64{
		spanDrain:                     40,
		spanDone + spanKind(opErase):  35,
		spanIssue + spanKind(opWrite): 10,
		spanSubmit:                    5,
		spanDone + spanKind(opRead):   10,
	}
	var sum int64
	for k, v := range want {
		if self[k] != v || count[k] != 1 {
			t.Errorf("%v: self %d count %d, want %d and 1", k, self[k], count[k], v)
		}
		sum += self[k]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestRegimeGuards(t *testing.T) {
	stalls := func(st simStats, n int64) simStats { st.ftl.WriteStalls = n; return st }
	fetches := func(st simStats, n int64) simStats { st.mapSt.Fetches = n; return st }
	backlog := simStats{end: 10, lastArrival: 5}
	for _, c := range []struct {
		workload string
		st       simStats
		ok       bool
	}{
		{"read-nogc", simStats{}, true},
		{"read-nogc", simStats{flash: [3]int64{0, 0, 1}}, false},
		{"spgc-overload", stalls(backlog, 1), true},
		{"spgc-overload", backlog, false},
		{"spgc-overload", stalls(simStats{end: 5, lastArrival: 5}, 1), false},
		{"fmmu-trace", fetches(simStats{}, 1), true},
		{"fmmu-trace", simStats{}, false},
		{"fmmu-trace", stalls(fetches(simStats{}, 1), 1), false},
	} {
		w, err := lookupSpec(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.regime(c.st); (err == nil) != c.ok {
			t.Errorf("%s %+v: guard returned %v", c.workload, c.st, err)
		}
	}
}

// TestCompactionRegime checks that the regime the traced mode chooses
// its input by tells the two GC regimes apart, on two fmmu-trace inputs
// of full length that README.md records in each.
func TestCompactionRegime(t *testing.T) {
	w, err := lookupSpec("fmmu-trace")
	if err != nil {
		t.Fatal(err)
	}
	for seed, want := range map[int64]bool{28: false, 29: true} {
		if o := untraced(t, w, seed); o.err != nil || o.compacted != want {
			t.Errorf("seed %d: %s, err %v; want compacted=%v", seed, o.regimeLine(), o.err, want)
		}
	}
}

// TestOutputMatchesBenchmarkJSON runs both modes on a short read-nogc
// and checks that their result carries exactly the metrics
// BENCHMARK.json declares for that mode, with their units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bj struct {
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		if _, err := lookupSpec(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(specs) {
		t.Errorf("BENCHMARK.json names %v, the benchmark has %d workloads", names, len(specs))
	}
	w, err := lookupSpec("read-nogc")
	if err != nil {
		t.Fatal(err)
	}
	w = short(w, 2000)
	dump := filepath.Join(t.TempDir(), "spans.tsv")
	for mode, want := range map[string][]decl{"0": bj.EndToEnd, "1": bj.PerLayer} {
		var log bytes.Buffer
		var res result
		if mode == "0" {
			res, err = measure(w, 2, time.Second, &log)
		} else {
			res, err = breakdown(w, 2, time.Second, dump, &log)
		}
		if err != nil {
			t.Fatalf("trace %s: %v\n%s", mode, err, log.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: %+v", mode, res)
		}
		if mode == "1" {
			checkSpanDump(t, dump)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range want {
			exp = append(exp, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Errorf("trace %s metrics:\n  printed  %v\n  declared %v", mode, got, exp)
		}
	}
}

// checkSpanDump checks that every line of the span dump names a span
// whose parent is an earlier span.
func checkSpanDump(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "id\tparent\tname\tstart_ns\tend_ns" || len(lines) < 2001 {
		t.Fatalf("header %q, %d lines for 2000 requests", lines[0], len(lines))
	}
	for i, line := range lines[1:] {
		var id, parent int
		var name string
		var start, end int64
		if _, err := fmt.Sscanf(line, "%d\t%d\t%s\t%d\t%d", &id, &parent, &name, &start, &end); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if id != i || parent >= i || parent < -1 || end < start {
			t.Fatalf("line %d: %q", i, line)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "read-nogc", "--trace", "2"},
		{"--workload", "read-nogc", "--seconds", "0"},
	} {
		var out, log bytes.Buffer
		if err := run(args, &out, &log); err == nil || out.Len() > 0 {
			t.Errorf("%v: err %v, printed %q", args, err, out.String())
		}
	}
}
