// Command pssdsim runs one SSD simulation: pick an architecture, a
// workload (named preset, trace CSV file, or synthetic pattern), a GC
// mode, and get the latency/throughput report. -trace writes a Chrome
// trace-event JSON (open in Perfetto), -metrics-json a machine-
// readable run summary, and -check attaches the cross-layer invariant
// checker (page conservation, bus legality, leak detection at drain).
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself; every run ends with one stderr line giving its wall time,
// events fired, events per second and heap bytes allocated.
//
//	go run ./cmd/pssdsim -arch pnssd+split -preset rocksdb-0 -gc spgc
//	go run ./cmd/pssdsim -arch pssd -synthetic rand-read -outstanding 32
//	go run ./cmd/pssdsim -arch base -tracefile mytrace.csv
//	go run ./cmd/pssdsim -arch pnssd+split -gc spgc -check -trace out.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

var archNames = map[string]ssd.Arch{
	"base":        ssd.ArchBase,
	"nossd-pin":   ssd.ArchNoSSDPin,
	"nossd-free":  ssd.ArchNoSSDFree,
	"pssd":        ssd.ArchPSSD,
	"pnssd":       ssd.ArchPnSSD,
	"pnssd+split": ssd.ArchPnSSDSplit,
}

var gcNames = map[string]ftl.GCMode{
	"none":       ftl.GCNone,
	"pagc":       ftl.GCParallel,
	"preemptive": ftl.GCPreemptive,
	"spgc":       ftl.GCSpatial,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole binary behind a testable seam: parse args, simulate,
// print the report to stdout and the simulator's own cost to stderr. The
// golden-output test drives it directly.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pssdsim", flag.ContinueOnError)
	archFlag := fs.String("arch", "pnssd+split", "architecture: base, nossd-pin, nossd-free, pssd, pnssd, pnssd+split")
	preset := fs.String("preset", "", "named workload preset (see -list)")
	traceFile := fs.String("tracefile", "", "replay a trace CSV (arrival_ps,op,lpn,pages)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON to this file (open in Perfetto)")
	metricsOut := fs.String("metrics-json", "", "write the machine-readable run summary JSON to this file")
	synth := fs.String("synthetic", "", "closed-loop pattern: seq-read, seq-write, rand-read, rand-write")
	outstanding := fs.Int("outstanding", 16, "outstanding I/Os for synthetic runs")
	requests := fs.Int("requests", 2000, "request count")
	gcFlag := fs.String("gc", "none", "GC mode: none, pagc, preemptive, spgc")
	policy := fs.String("policy", "pcwd", "page allocation policy: pcwd, pwcd")
	seed := fs.Int64("seed", 1, "workload seed")
	full := fs.Bool("full", false, "full Table II geometry (slow); default is the scaled geometry")
	checkFlag := fs.Bool("check", false, "attach the invariant checker and verify the run at drain")
	sched := fs.String("sched", "fifo", "controller scheduling policy: fifo, conflict (Venice-style path reservation), ooo (Sprinkler-style die reordering)")
	mapping := fs.String("mapping", "flat", "FTL mapping mode: flat (whole map in DRAM), fmmu (on-flash map with a bounded cache)")
	mapcache := fs.Int("mapcache", 0, "with -mapping fmmu: map cache capacity in translation-page entries (0 = default 64)")
	mapevict := fs.String("mapevict", "", "with -mapping fmmu: cache eviction policy, clock or lru (default clock)")
	list := fs.Bool("list", false, "list named traces and exit")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProf := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range workload.Names() {
			why, _ := workload.Describe(name)
			fmt.Fprintf(stdout, "%-12s %s\n", name, why)
		}
		return nil
	}

	arch, ok := archNames[strings.ToLower(*archFlag)]
	if !ok {
		return fmt.Errorf("unknown architecture %q", *archFlag)
	}
	gc, ok := gcNames[strings.ToLower(*gcFlag)]
	if !ok {
		return fmt.Errorf("unknown GC mode %q", *gcFlag)
	}

	cfg := ssd.ScaledConfig()
	if *full {
		cfg = ssd.DefaultConfig()
	}
	cfg.FTL.GCMode = gc
	switch strings.ToLower(*policy) {
	case "pcwd":
		cfg.FTL.Policy = ftl.PCWD
	case "pwcd":
		cfg.FTL.Policy = ftl.PWCD
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	if gc != ftl.GCNone {
		cfg.LogicalUtilization = 0.75
	}
	if *traceOut != "" || *metricsOut != "" {
		cfg.Trace = &trace.Config{}
	}
	if *checkFlag {
		cfg.Check = &check.Config{}
	}
	if _, err := controller.ParseSchedPolicy(*sched); err != nil {
		return err
	}
	cfg.Scheduler = *sched
	switch strings.ToLower(*mapping) {
	case "flat":
	case "fmmu":
		switch strings.ToLower(*mapevict) {
		case "", "clock", "lru":
		default:
			return fmt.Errorf("unknown map eviction policy %q (want clock or lru)", *mapevict)
		}
		if *mapcache < 0 {
			return fmt.Errorf("negative map cache size %d", *mapcache)
		}
		cfg.Mapping = "fmmu"
		cfg.MapCacheEntries = *mapcache
		cfg.MapEviction = strings.ToLower(*mapevict)
	default:
		return fmt.Errorf("unknown mapping mode %q (want flat or fmmu)", *mapping)
	}

	if *cpuProf != "" {
		fh, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fh.Close()
			return fmt.Errorf("cpuprofile: %v", err)
		}
		defer func() { pprof.StopCPUProfile(); fh.Close() }()
	}
	if *memProf != "" {
		defer writeHeapProfile(*memProf, stderr)
	}
	defer reportCost(stderr, time.Now(), sim.EventsFiredTotal(), heapAllocated())

	s := ssd.New(arch, cfg)
	foot := s.Config.LogicalPages()
	fmt.Fprintf(stdout, "architecture: %s (%s)\n", arch, arch.Describe())
	fmt.Fprintf(stdout, "device: %d chips, %d logical pages (%d MB), GC=%s, policy=%s\n",
		s.Grid.NumChips(), foot, foot*int64(cfg.Geometry.PageSize)/(1<<20), gc, cfg.FTL.Policy)
	if s.Sched != nil { // fifo leaves the fabric unwrapped, so this line only appears for non-default policies
		fmt.Fprintf(stdout, "scheduler: %s (window=%d, reorder bound=%d)\n",
			s.Sched.Policy(), s.Sched.Window(), s.Sched.ReorderBound())
	}
	if s.FTL.MapEnabled() { // flat runs carry no map unit, so this line only appears under -mapping fmmu
		fmt.Fprintf(stdout, "mapping: fmmu (%d translation pages, cache %d entries)\n",
			s.FTL.NumTranslationPages(), s.FTL.MapCacheEntries())
	}

	s.Host.Warmup(foot)
	switch {
	case *synth != "":
		var p workload.Pattern
		switch strings.ToLower(*synth) {
		case "seq-read":
			p = workload.SeqRead
		case "seq-write":
			p = workload.SeqWrite
		case "rand-read":
			p = workload.RandRead
		case "rand-write":
			p = workload.RandWrite
		default:
			return fmt.Errorf("unknown synthetic pattern %q", *synth)
		}
		fmt.Fprintf(stdout, "workload: synthetic %s, %d outstanding, %d requests\n", p, *outstanding, *requests)
		s.Host.RunClosedLoop(workload.Synthetic(p, foot, 4, *seed), *outstanding, *requests)
	case *traceFile != "":
		fh, err := os.Open(*traceFile)
		if err != nil {
			return fmt.Errorf("open trace: %v", err)
		}
		tr, err := workload.ReadCSV(fh, *traceFile)
		fh.Close()
		if err != nil {
			return fmt.Errorf("parse trace: %v", err)
		}
		if tr.Footprint > foot {
			return fmt.Errorf("trace footprint %d exceeds device logical pages %d", tr.Footprint, foot)
		}
		fmt.Fprintf(stdout, "workload: trace file %s, %d requests\n", *traceFile, len(tr.Requests))
		if _, err := s.Host.Replay(tr.Requests); err != nil {
			return fmt.Errorf("replay trace: %v", err)
		}
	default:
		name := *preset
		if name == "" {
			name = "rocksdb-0"
		}
		tr, err := workload.Named(name, foot, *requests, *seed)
		if err != nil {
			return err
		}
		reads, writes, frac := tr.Mix()
		fmt.Fprintf(stdout, "workload: %s (%d reads / %d writes, %.0f%% read), duration %v\n",
			name, reads, writes, frac*100, tr.Duration())
		if _, err := s.Host.Replay(tr.Requests); err != nil {
			return fmt.Errorf("replay workload: %v", err)
		}
	}

	// Drain plus an explicit verify so a violation surfaces as a clean
	// error instead of SSD.Run's panic.
	end := s.Drain()
	if s.Checker.Enabled() {
		if err := s.VerifyInvariants(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "invariants: %d checks, 0 violations\n", s.Checker.Checks())
	}
	if err := printReport(stdout, s, end); err != nil {
		return err
	}

	if *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("create trace file: %v", err)
		}
		if err := s.Tracer.ExportChrome(fh); err != nil {
			return fmt.Errorf("write trace: %v", err)
		}
		fh.Close()
		fmt.Fprintf(stdout, "trace: %d events -> %s (open in https://ui.perfetto.dev)\n", s.Tracer.Events(), *traceOut)
	}
	if *metricsOut != "" {
		fh, err := os.Create(*metricsOut)
		if err != nil {
			return fmt.Errorf("create metrics file: %v", err)
		}
		if err := s.WriteSummaryJSON(fh); err != nil {
			return fmt.Errorf("write metrics: %v", err)
		}
		fh.Close()
		fmt.Fprintf(stdout, "metrics: %s\n", *metricsOut)
	}
	return nil
}

// heapAllocated returns the cumulative bytes the process has allocated.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// reportCost prints the simulator's own cost since start: wall time,
// events fired, events per wall second and heap bytes allocated.
func reportCost(stderr io.Writer, start time.Time, events0 int64, alloc0 uint64) {
	wall := time.Since(start)
	events := sim.EventsFiredTotal() - events0
	fmt.Fprintf(stderr, "pssdsim: wall %v, %d events, %.0f events/s, %d heap bytes allocated\n",
		wall.Round(time.Millisecond), events, float64(events)/wall.Seconds(), heapAllocated()-alloc0)
}

// writeHeapProfile writes a pprof heap profile after a collection, so it
// shows what the run still holds live as well as what it allocated.
func writeHeapProfile(path string, stderr io.Writer) {
	fh, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "memprofile: %v\n", err)
		return
	}
	defer fh.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(fh); err != nil {
		fmt.Fprintf(stderr, "memprofile: %v\n", err)
	}
}

func printReport(stdout io.Writer, s *ssd.SSD, end sim.Time) error {
	m := s.Metrics()
	comb := m.Combined()
	t := report.New("\nResults", "metric", "value")
	t.Add("simulated time", end.String())
	t.Add("requests", fmt.Sprint(m.TotalRequests()))
	t.Add("mean latency", comb.Mean().String())
	t.Add("read mean", m.Latency[stats.Read].Mean().String())
	t.Add("write mean", m.Latency[stats.Write].Mean().String())
	t.Add("p50 / p99 / p99.9", fmt.Sprintf("%v / %v / %v", comb.Percentile(50), comb.P99(), comb.Percentile(99.9)))
	t.Add("throughput", fmt.Sprintf("%.1f KIOPS, %.1f MB/s", m.KIOPS(), m.BandwidthMBps()))
	st := s.FTL.Stats()
	if st.GCRounds > 0 {
		t.Add("GC rounds", fmt.Sprint(st.GCRounds))
		t.Add("GC pages copied", fmt.Sprint(st.GCPagesCopied))
		t.Add("GC blocks erased", fmt.Sprint(st.GCBlocksErased))
		t.Add("GC total time", st.GCTotalTime.String())
	}
	if s.Sched != nil {
		deferred, reordered, forced := s.Sched.Counts()
		t.Add("sched deferred / reordered / forced", fmt.Sprintf("%d / %d / %d", deferred, reordered, forced))
		t.Add("sched peak queue", fmt.Sprint(s.Sched.MaxPending()))
	}
	if s.FTL.MapEnabled() {
		ms := s.FTL.MapStats()
		t.Add("map hits / misses", fmt.Sprintf("%d / %d (%.0f%% miss)", ms.Hits, ms.Misses, ms.MissRate()*100))
		t.Add("map fetches / writebacks", fmt.Sprintf("%d / %d", ms.Fetches, ms.Writebacks))
		if ms.CleanRounds > 0 {
			t.Add("map clean rounds / erases", fmt.Sprintf("%d / %d", ms.CleanRounds, ms.MapErases))
		}
	}
	t.Add("sysbus busy", s.Soc.SysBusBusy().String())
	t.Add("dram busy", s.Soc.DramBusy().String())
	fmt.Fprintln(stdout, t.String())
	printHeatmap(stdout, s, end)
	if err := s.FTL.CheckConsistency(); err != nil {
		return fmt.Errorf("FTL consistency check failed: %v", err)
	}
	fmt.Fprintln(stdout, "FTL mapping consistency: OK")
	return nil
}

// printHeatmap renders the per-bus utilization timelines as a shade-rune
// heat table (the textual Fig 3), one row per h- and v-channel. It needs
// the trace recorder's fixed-window timelines, so it renders only when
// tracing is enabled.
func printHeatmap(stdout io.Writer, s *ssd.SSD, end sim.Time) {
	if !s.Tracer.Enabled() {
		return
	}
	t := report.New(fmt.Sprintf("Bus utilization (%v windows)", s.Tracer.Window()), "bus", "busy", "timeline")
	for _, kind := range []string{trace.KindHChannel, trace.KindVChannel} {
		names, rows := s.Tracer.HeatRows(kind, end)
		for i, name := range names {
			busy := s.Tracer.BusyTotals(kind)[name]
			frac := 0.0
			if end > 0 {
				frac = float64(busy) / float64(end)
			}
			t.Add(name, report.Pct(frac), report.Heat(rows[i]))
		}
	}
	if len(t.Rows) > 0 {
		fmt.Fprintln(stdout, t.String())
	}
}
