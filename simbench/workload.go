package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// spec is one benchmark workload: a device configuration plus the
// request stream driven against it.
type spec struct {
	name    string
	arch    ssd.Arch
	gc      ftl.GCMode
	mapping string
	// mapCache is the fmmu map-cache capacity in translation pages.
	mapCache int
	// preset names an open-loop workload.Named trace; empty selects a
	// closed loop of uniform random 64 KB reads.
	preset      string
	outstanding int
	requests    int
	// compacts is the GC regime most inputs fall into (README.md): true
	// where most run the whole-device compaction. The traced mode breaks
	// down an input in this regime.
	compacts bool
}

// specs are the benchmark's workloads. Their lengths are fixed here: a
// run varies only the seed, never the size. README.md gives the regime
// each one was chosen for.
var specs = []spec{
	// The read path alone: submit, FTL lookup, Omnibus split routing,
	// flash reads and SoC. GC, the allocator, the stall queue and the map
	// unit do no work.
	{
		name: "read-nogc", arch: ssd.ArchPnSSDSplit, gc: ftl.GCNone,
		outstanding: 64, requests: 100_000,
	},
	// The headline GC configuration past saturation: V-page re-polls,
	// write stalls, GC compaction and a growing backlog.
	{
		name: "spgc-overload", arch: ssd.ArchPnSSDSplit, gc: ftl.GCSpatial,
		preset: "rocksdb-1", requests: 14_000, compacts: true,
	},
	// Map fetches and write-backs over the fabric and DRAM-relayed GC
	// copies, with no write stalls. The map cache holds half of the 48
	// translation pages; the default 64 entries would hold them all and
	// the map unit would never fetch.
	{
		name: "fmmu-trace", arch: ssd.ArchPSSD, gc: ftl.GCParallel, mapping: "fmmu", mapCache: 24,
		preset: "exchange-0", requests: 60_000, compacts: true,
	},
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, w := range specs {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config returns the device configuration of the workload, with the
// repository's own tracing and checking off.
func (w spec) config() ssd.Config {
	cfg := ssd.ScaledConfig()
	cfg.FTL.GCMode = w.gc
	if w.gc != ftl.GCNone {
		cfg.LogicalUtilization = 0.75
	}
	cfg.Mapping = w.mapping
	cfg.MapCacheEntries = w.mapCache
	return cfg
}

// generate builds the workload's requests for one seed over a footprint.
// Closed-loop requests carry no arrival time; drive stamps them.
func (w spec) generate(footprint, seed int64) ([]host.Request, error) {
	if w.preset != "" {
		tr, err := workload.Named(w.preset, footprint, w.requests, seed)
		if err != nil {
			return nil, err
		}
		return tr.Requests, nil
	}
	gen := workload.Synthetic(workload.RandRead, footprint, 4, seed)
	reqs := make([]host.Request, w.requests)
	for i := range reqs {
		reqs[i] = gen(i)
	}
	return reqs, nil
}

// fabricFunc builds a device's fabric for ssd.NewCustom.
type fabricFunc func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, pageSize int) controller.Fabric

// baseFabric returns the constructor ssd.New uses for the workload's
// architecture, for building the same device through ssd.NewCustom.
// NewCustom provisions the SoC at twice the flash bandwidth, which
// matches ssd.New only for the packetized architectures used here.
func (w spec) baseFabric(busMTps int) fabricFunc {
	name := w.arch.String()
	switch w.arch {
	case ssd.ArchPSSD:
		return func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, ps int) controller.Fabric {
			return controller.NewBusFabric(eng, name, grid, soc, ps, 16, busMTps, true)
		}
	case ssd.ArchPnSSD, ssd.ArchPnSSDSplit:
		split := w.arch == ssd.ArchPnSSDSplit
		return func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, ps int) controller.Fabric {
			return controller.NewOmnibusFabric(eng, name, grid, soc, ps, 8, busMTps, split)
		}
	}
	panic(fmt.Sprintf("simbench: no custom fabric for %v", w.arch))
}

// setup is one device ready to run, with the time each step took.
type setup struct {
	s       *ssd.SSD
	reqs    []host.Request
	buildNs int64
	warmNs  int64
	genNs   int64
}

func (st setup) total() time.Duration { return time.Duration(st.buildNs + st.warmNs + st.genNs) }

// prepare builds the device (through build), warms the whole footprint
// and generates the seed's requests, timing each step.
func (w spec) prepare(seed int64, build func(ssd.Config) *ssd.SSD) (setup, error) {
	var st setup
	t0 := time.Now()
	st.s = build(w.config())
	t1 := time.Now()
	foot := st.s.Config.LogicalPages()
	st.s.Host.Warmup(foot)
	t2 := time.Now()
	reqs, err := w.generate(foot, seed)
	if err != nil {
		return st, err
	}
	t3 := time.Now()
	st.reqs = reqs
	st.buildNs, st.warmNs, st.genNs = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), t3.Sub(t2).Nanoseconds()
	return st, nil
}

// submitFunc issues one request; the traced run wraps Host.Submit.
type submitFunc func(r host.Request, done func()) error

// simStats is what one simulation produced in simulated terms. It is
// deterministic for a given input, so two runs of the same input — one
// traced, one not — must compare equal.
type simStats struct {
	requests    int
	completed   int
	events      int64
	end         sim.Time
	lastArrival sim.Time
	ftl         ftl.Stats
	mapSt       ftl.MapStats
	flash       [3]int64 // reads, programs, erases
	paths       [5]int64 // h, v, split, direct, relayed
	readP       [2]sim.Time
	writeP      sim.Time
	kiops       float64
	// compacted is set when GC copied more than half the pages the
	// device holds logically: the whole-device compaction of README.md
	// (more than all of them) rather than the quiet end (under a third).
	compacted bool
}

// outcome is one simulation: its simulated statistics, the host cost of
// its timed phase, and the first check it failed, if any.
type outcome struct {
	simStats
	wallNs     int64
	allocBytes uint64
	err        error
}

// drive runs the requests to completion on the prepared device: open
// loop at the trace's arrival times, or a closed loop with the
// workload's outstanding count. The timed phase runs from scheduling the
// first request to the end of drain, which wraps SSD.Drain. A non-nil
// rec times the scheduling as a span.
func (w spec) drive(st setup, submit submitFunc, drain func() sim.Time, rec *recorder) outcome {
	s := st.s
	eng := s.Engine
	o := outcome{simStats: simStats{requests: len(st.reqs)}}
	var submitErr error
	finished := func() { o.completed++ }
	issue := func(r host.Request, done func()) {
		r.Arrival = eng.Now()
		if r.Arrival > o.lastArrival {
			o.lastArrival = r.Arrival
		}
		if err := submit(r, done); err != nil && submitErr == nil {
			submitErr = err
		}
	}
	before := flashCounts(s)
	eventsBefore := eng.EventsFired()
	allocBefore := heapAllocs()
	start := time.Now()
	var sched int32
	if rec != nil {
		sched = rec.begin(spanSchedule)
	}
	if w.preset != "" {
		for _, r := range st.reqs {
			r := r
			eng.At(r.Arrival, func() { issue(r, finished) })
		}
	} else {
		next := 0
		var loop func()
		// Every completion both counts and issues the next request.
		chain := func() { finished(); loop() }
		loop = func() {
			if next >= len(st.reqs) {
				return
			}
			r := st.reqs[next]
			next++
			issue(r, chain)
		}
		for i := 0; i < w.outstanding && i < len(st.reqs); i++ {
			eng.At(eng.Now(), loop)
		}
	}
	if rec != nil {
		rec.end(sched)
	}
	o.end = drain()
	o.wallNs = time.Since(start).Nanoseconds()
	o.allocBytes = heapAllocs() - allocBefore
	o.events = eng.EventsFired() - eventsBefore
	o.collect(s)
	after := flashCounts(s)
	for i := range o.flash {
		o.flash[i] = after[i] - before[i]
	}
	switch {
	case submitErr != nil:
		o.err = fmt.Errorf("submit: %w", submitErr)
	case o.completed != o.requests:
		o.err = fmt.Errorf("%d of %d requests completed", o.completed, o.requests)
	default:
		o.err = s.FTL.CheckConsistency()
	}
	return o
}

// simulate runs one input on a device built by ssd.New, after a non-nil
// edit adjusts its configuration. With the invariant checker configured, the
// run also fails on any violation.
func (w spec) simulate(seed int64, edit func(*ssd.Config)) (outcome, setup, error) {
	st, err := w.prepare(seed, func(cfg ssd.Config) *ssd.SSD {
		if edit != nil {
			edit(&cfg)
		}
		return ssd.New(w.arch, cfg)
	})
	if err != nil {
		return outcome{}, st, err
	}
	runtime.GC()
	o := w.drive(st, st.s.Host.Submit, st.s.Drain, nil)
	if o.err == nil && st.s.Checker.Enabled() {
		o.err = st.s.VerifyInvariants()
	}
	if o.err == nil {
		o.err = w.regime(o.simStats)
	}
	return o, st, nil
}

// settle collects garbage and returns the freed memory to the OS, so
// that the simulation after it starts from the same heap as any other
// and the resident set while it runs is its own, not a high-water mark
// left by the one before.
func settle() { debug.FreeOSMemory() }

// collect reads the device's simulated statistics after a drain.
func (o *simStats) collect(s *ssd.SSD) {
	o.ftl = s.FTL.Stats()
	if s.FTL.MapEnabled() {
		o.mapSt = s.FTL.MapStats()
	}
	if ob := omnibusOf(s.Fabric); ob != nil {
		o.paths[0], o.paths[1], o.paths[2], o.paths[3], o.paths[4] = ob.PathCounts()
	}
	m := s.Metrics()
	o.readP = [2]sim.Time{m.Latency[stats.Read].Percentile(50), m.Latency[stats.Read].P99()}
	o.writeP = m.Latency[stats.Write].P99()
	o.kiops = m.KIOPS()
	o.compacted = 2*o.ftl.GCPagesCopied > s.Config.LogicalPages()
}

// flashCounts sums the (reads, programs, erases) of every chip.
func flashCounts(s *ssd.SSD) [3]int64 {
	var n [3]int64
	s.Grid.ForEach(func(_ controller.ChipID, c *flash.Chip) {
		r, p, e := c.Counters()
		n[0] += r
		n[1] += p
		n[2] += e
	})
	return n
}

// omnibusOf returns the Omnibus fabric under fab, looking through the
// traced wrapper, or nil for other fabrics.
func omnibusOf(fab controller.Fabric) *controller.OmnibusFabric {
	if t, ok := fab.(*tracedFabric); ok {
		fab = t.inner
	}
	ob, _ := fab.(*controller.OmnibusFabric)
	return ob
}

// regime checks that a workload stayed in the regime it was chosen for.
func (w spec) regime(o simStats) error {
	switch w.name {
	case "read-nogc":
		if o.ftl.GCPagesCopied > 0 || o.flash[2] > 0 {
			return fmt.Errorf("regime: read-nogc made %d GC copies and %d erases", o.ftl.GCPagesCopied, o.flash[2])
		}
	case "spgc-overload":
		if o.ftl.WriteStalls == 0 || o.end <= o.lastArrival {
			return fmt.Errorf("regime: spgc-overload has %d write stalls and %v backlog", o.ftl.WriteStalls, o.end-o.lastArrival)
		}
	case "fmmu-trace":
		if o.ftl.WriteStalls > 0 || o.mapSt.Fetches == 0 {
			return fmt.Errorf("regime: fmmu-trace has %d write stalls and %d map fetches", o.ftl.WriteStalls, o.mapSt.Fetches)
		}
	}
	return nil
}

// regimeLine summarises the counts the regime guards look at.
func (o simStats) regimeLine() string {
	return fmt.Sprintf("%s events=%d copies=%d erases=%d stalls=%d map_fetches=%d backlog=%v sim=%v",
		o.gcRegime(), o.events, o.ftl.GCPagesCopied, o.flash[2], o.ftl.WriteStalls, o.mapSt.Fetches, o.end-o.lastArrival, o.end)
}

func (o simStats) gcRegime() string {
	if o.compacted {
		return "compaction"
	}
	return "quiet"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
