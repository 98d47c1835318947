// Package ssd assembles complete simulated SSDs: the Table II
// configuration, the Table III architecture matrix (baseSSD, pSSD, pnSSD,
// pnSSD+split, and the two NoSSD mesh variants), and a one-call
// constructor that wires engine, flash grid, SoC, fabric, FTL, and host
// together. This is the public entry point the examples, the experiment
// runners, and the benchmarks build on.
package ssd

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Arch selects one of the evaluated SSD architectures (Table III).
type Arch int

// Architectures.
const (
	ArchBase       Arch = iota // conventional SSD: dedicated signaling, 8-bit bus
	ArchNoSSDPin               // Network-on-SSD, pin-constrained 2-bit mesh links
	ArchNoSSDFree              // Network-on-SSD, unconstrained 8-bit mesh links
	ArchPSSD                   // packetized SSD: 16-bit packetized bus (Sec IV)
	ArchPnSSD                  // pSSD + Omnibus topology (Sec V)
	ArchPnSSDSplit             // pnSSD with split page transfers (Sec V-C)
)

// Archs lists every architecture in Table III order.
var Archs = []Arch{ArchBase, ArchNoSSDPin, ArchNoSSDFree, ArchPSSD, ArchPnSSD, ArchPnSSDSplit}

// String returns the paper's acronym.
func (a Arch) String() string {
	switch a {
	case ArchBase:
		return "baseSSD"
	case ArchNoSSDPin:
		return "NoSSD(pin-constraint)"
	case ArchNoSSDFree:
		return "NoSSD(no constraint)"
	case ArchPSSD:
		return "pSSD"
	case ArchPnSSD:
		return "pnSSD"
	case ArchPnSSDSplit:
		return "pnSSD(+split)"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// Describe returns the Table III description.
func (a Arch) Describe() string {
	switch a {
	case ArchBase:
		return "Conventional SSD"
	case ArchNoSSDPin:
		return "Network-on-SSD with 2-bit channel on mesh"
	case ArchNoSSDFree:
		return "Network-on-SSD with 8-bit channel on mesh"
	case ArchPSSD:
		return "Packetized SSD (Sec IV)"
	case ArchPnSSD:
		return "pSSD with Omnibus topology (Sec V)"
	case ArchPnSSDSplit:
		return "Split technique applied on pnSSD"
	default:
		return "unknown"
	}
}

// Config is the simulation configuration; DefaultConfig reproduces Table
// II and ScaledConfig shrinks per-plane block counts for fast tests and
// benches while preserving every ratio the experiments depend on.
type Config struct {
	Channels int
	Ways     int
	Geometry flash.Geometry
	Timing   flash.Timing
	// BusMTps is the flash channel transfer rate (Table II: 1000 MT/s).
	BusMTps int
	// FTL carries allocation policy and GC settings.
	FTL ftl.Config
	// LogicalUtilization is the fraction of raw capacity exported as LPNs
	// (the rest is over-provisioning).
	LogicalUtilization float64
	// Fault, when non-nil, enables deterministic fault injection: one
	// shared injector is threaded through every chip, the FTL, and (on
	// Omnibus architectures) the fabric control plane.
	Fault *fault.Config
	// Trace, when non-nil, enables the tracing subsystem: a recorder is
	// attached to every bus channel, flash die, SoC resource, and the NVMe
	// link, and the host/FTL/fabric layers emit lifecycle spans. Nil (the
	// default) leaves every hook detached, so the simulation is
	// bit-identical to a build without tracing.
	Trace *trace.Config
	// Check, when non-nil, enables the invariant checker: an observer is
	// attached alongside tracing on every bus channel, flash die, SoC
	// resource, and the NVMe link, the FTL reports page commits, and Run
	// verifies drain-time invariants. Nil (the default) leaves every hook
	// detached, so the simulation is bit-identical to a build without
	// checking.
	Check *check.Config
	// Frontend, when non-nil, builds a multi-tenant NVMe front end over
	// the host: one submission/completion queue pair per tenant with the
	// configured arbiter deciding dispatch order. Nil (the default) leaves
	// the single-queue Host as the only entry point.
	Frontend *host.FrontendConfig
	// Telemetry, when non-nil, enables the time-series engine: a
	// collector samples windowed host throughput/latency, GC activity,
	// Omnibus grant wait, per-tenant queue depth, and RAS events, and
	// every request carries a latency attribution decomposing its
	// end-to-end latency into phases. Nil (the default) leaves every
	// hook detached, so the simulation is bit-identical to a build
	// without telemetry.
	Telemetry *telemetry.Config
	// Scheduler selects the controller's command scheduling policy:
	// "fifo" (or empty, the default — issue in arrival order, byte-
	// identical to a build without the scheduling layer), "conflict"
	// (Venice-style conflict-aware path reservation), or "ooo"
	// (Sprinkler-style out-of-order die-level reordering). Non-FIFO
	// policies interpose controller.SchedFabric between the FTL and the
	// fabric.
	Scheduler string
	// Mapping selects the FTL mapping mode: "flat" (or empty, the
	// default — whole map in DRAM, translation free, byte-identical to a
	// build without the map unit) or "fmmu" (FMMU-style demand-paged
	// mapping: translation pages live on flash, a bounded DRAM map cache
	// holds the hot subset, and map IO flows through the fabric as real
	// traffic).
	Mapping string
	// MapCacheEntries is the fmmu map-cache capacity in translation
	// pages; zero selects the ftl default (64). Ignored in flat mode.
	MapCacheEntries int
	// MapEviction selects the fmmu map-cache replacement policy:
	// "clock" (or empty, the default) or "lru". Ignored in flat mode.
	MapEviction string
}

// DefaultConfig returns the paper's Table II parameters: 8 channels, 8
// ways, 1 die, 4 planes, 1024 blocks, 512 pages, 16 KB pages, ULL flash,
// 1000 MT/s bus.
func DefaultConfig() Config {
	return Config{
		Channels:           8,
		Ways:               8,
		Geometry:           flash.Geometry{Planes: 4, BlocksPerPlane: 1024, PagesPerBlock: 512, PageSize: 16384},
		Timing:             flash.ULLTiming(),
		BusMTps:            1000,
		FTL:                ftl.DefaultConfig(),
		LogicalUtilization: 0.875,
	}
}

// ScaledConfig returns Table II with the per-plane block count and pages
// per block reduced so whole-device experiments run in seconds. Channel
// count, way count, plane count, page size, bus rate, and flash timing —
// everything that shapes the interconnect results — are untouched.
func ScaledConfig() Config {
	c := DefaultConfig()
	c.Geometry.BlocksPerPlane = 16
	c.Geometry.PagesPerBlock = 32
	return c
}

// Validate panics on malformed configuration.
func (c Config) Validate() {
	c.Geometry.Validate()
	if c.Channels <= 0 || c.Ways <= 0 || c.BusMTps <= 0 {
		panic(fmt.Sprintf("ssd: invalid config %+v", c))
	}
	if c.LogicalUtilization <= 0 || c.LogicalUtilization >= 1 {
		panic("ssd: LogicalUtilization must be in (0,1)")
	}
	if _, err := controller.ParseSchedPolicy(c.Scheduler); err != nil {
		panic(fmt.Sprintf("ssd: %v", err))
	}
	switch c.Mapping {
	case "", "flat", "fmmu":
	default:
		panic(fmt.Sprintf("ssd: unknown mapping mode %q (want flat or fmmu)", c.Mapping))
	}
	switch c.MapEviction {
	case "", "clock", "lru":
	default:
		panic(fmt.Sprintf("ssd: unknown map eviction policy %q (want clock or lru)", c.MapEviction))
	}
	if c.MapCacheEntries < 0 {
		panic(fmt.Sprintf("ssd: negative map cache size %d", c.MapCacheEntries))
	}
	if c.Frontend != nil {
		if err := c.Frontend.Validate(); err != nil {
			panic(err)
		}
	}
	if c.Fault != nil {
		c.Fault.Validate()
		numV := c.Channels
		if c.Ways < numV {
			numV = c.Ways
		}
		for _, v := range c.Fault.DeadVChannels {
			if v >= numV {
				panic(fmt.Sprintf("ssd: dead v-channel %d outside [0,%d)", v, numV))
			}
		}
	}
}

// RawPages returns the device's physical page count.
func (c Config) RawPages() int64 {
	return int64(c.Channels) * int64(c.Ways) * int64(c.Geometry.PagesPerChip())
}

// LogicalPages returns the exported LPN count.
func (c Config) LogicalPages() int64 {
	return int64(float64(c.RawPages()) * c.LogicalUtilization)
}

// totalFlashMBps is the aggregate baseline flash bus bandwidth used to
// provision SoC and NVMe resources (Table II's "x1" note).
func (c Config) totalFlashMBps() int { return c.Channels * c.BusMTps }

// SSD is one assembled device.
type SSD struct {
	Arch   Arch
	Config Config
	Engine *sim.Engine
	Grid   *controller.Grid
	Soc    *controller.Soc
	Fabric controller.Fabric
	FTL    *ftl.FTL
	Host   *host.Host
	// Frontend is the multi-tenant queue front end, nil unless
	// Config.Frontend was set.
	Frontend *host.Frontend
	// Faults is the shared injector, nil unless Config.Fault was set.
	Faults *fault.Injector
	// Tracer is the trace recorder, nil unless Config.Trace was set.
	Tracer *trace.Recorder
	// Checker is the invariant checker, nil unless Config.Check was set.
	Checker *check.Checker
	// Telemetry is the time-series collector, nil unless
	// Config.Telemetry was set.
	Telemetry *telemetry.Collector
	// Sched is the scheduling layer between FTL and fabric, nil unless
	// Config.Scheduler selected a non-FIFO policy. Fabric stays the
	// inner interconnect model in either case.
	Sched *controller.SchedFabric
}

// RAS returns the run's RAS counters, or nil when fault injection is off.
func (s *SSD) RAS() *stats.RAS { return s.Faults.RAS() }

// wireFaults builds the injector from cfg.Fault (nil when absent) and
// attaches it to every chip, the FTL, and an Omnibus fabric's control
// plane. Bus and mesh fabrics have no v-channels or grant exchange, so
// for them only the flash- and FTL-level classes apply.
func wireFaults(cfg Config, grid *controller.Grid, fab controller.Fabric, f *ftl.FTL) *fault.Injector {
	if cfg.Fault == nil {
		return nil
	}
	inj := fault.New(*cfg.Fault)
	grid.ForEach(func(id controller.ChipID, c *flash.Chip) {
		c.SetFaults(inj, uint64(id.Channel*cfg.Ways+id.Way))
	})
	f.SetFaults(inj)
	if ob, ok := fab.(*controller.OmnibusFabric); ok {
		ob.SetFaultInjector(inj)
	}
	return inj
}

// wireTrace builds the recorder from cfg.Trace (nil when absent),
// registers one track per h-channel, v-channel, chip die, SoC resource,
// and the NVMe link — in that display order, so every bus appears in the
// export even if idle — and attaches the observer and span hooks through
// every layer. Mesh fabrics trace their chips, SoC, and NVMe link; mesh
// links have no per-row channel notion and stay untracked.
func wireTrace(cfg Config, eng *sim.Engine, grid *controller.Grid, fab controller.Fabric, f *ftl.FTL, h *host.Host, soc *controller.Soc) *trace.Recorder {
	if cfg.Trace == nil {
		return nil
	}
	rec := trace.New(eng, *cfg.Trace)
	switch fb := fab.(type) {
	case *controller.BusFabric:
		for ch := 0; ch < grid.Channels; ch++ {
			c := fb.Channel(ch)
			rec.RegisterTrack(c.Name(), trace.KindHChannel)
			c.SetObserver(rec)
		}
	case *controller.OmnibusFabric:
		for ch := 0; ch < grid.Channels; ch++ {
			c := fb.HChannel(ch)
			rec.RegisterTrack(c.Name(), trace.KindHChannel)
			c.SetObserver(rec)
		}
		for i := 0; i < fb.NumVChannels(); i++ {
			c := fb.VChannel(i * fb.ColumnsPerVChannel())
			rec.RegisterTrack(c.Name(), trace.KindVChannel)
			c.SetObserver(rec)
		}
		fb.SetTracer(rec)
	}
	grid.ForEach(func(_ controller.ChipID, c *flash.Chip) {
		rec.RegisterTrack(c.DieName(), trace.KindChip)
		c.SetObserver(rec)
	})
	rec.RegisterTrack("sysbus", trace.KindSoc)
	rec.RegisterTrack("dram", trace.KindSoc)
	soc.SetObserver(rec)
	rec.RegisterTrack(h.NvmeName(), trace.KindHost)
	h.SetObserver(rec)
	h.SetTracer(rec)
	f.SetTracer(rec)
	return rec
}

// wireCheck builds the invariant checker from cfg.Check (nil when
// absent): it registers every bus channel, die, SoC resource, and the
// NVMe link with its kind, attaches the checker as an additional observer
// (tracing, if enabled, keeps its own), hooks the FTL's page-commit sink
// and the Omnibus copy-routing notification, and installs the drain-time
// leak and accounting checks Run verifies.
func wireCheck(cfg Config, eng *sim.Engine, grid *controller.Grid, fab controller.Fabric, f *ftl.FTL, h *host.Host, soc *controller.Soc, inj *fault.Injector) *check.Checker {
	if cfg.Check == nil {
		return nil
	}
	ck := check.New(eng, *cfg.Check)
	watch := func(name string, busy func() bool, queued func() int) {
		ck.WatchIdle(name, func() (bool, int) { return busy(), queued() })
	}
	switch fb := fab.(type) {
	case *controller.BusFabric:
		for ch := 0; ch < grid.Channels; ch++ {
			c := fb.Channel(ch)
			ck.RegisterResource(c.Name(), trace.KindHChannel)
			c.AddObserver(ck)
			watch(c.Name(), c.Busy, c.QueueLen)
		}
	case *controller.OmnibusFabric:
		for ch := 0; ch < grid.Channels; ch++ {
			c := fb.HChannel(ch)
			ck.RegisterResource(c.Name(), trace.KindHChannel)
			c.AddObserver(ck)
			watch(c.Name(), c.Busy, c.QueueLen)
		}
		for i := 0; i < fb.NumVChannels(); i++ {
			c := fb.VChannel(i * fb.ColumnsPerVChannel())
			ck.RegisterResource(c.Name(), trace.KindVChannel)
			c.AddObserver(ck)
			watch(c.Name(), c.Busy, c.QueueLen)
		}
		ck.WatchCopies(fb.ColumnsPerVChannel())
		fb.SetChecker(ck)
	}
	grid.ForEach(func(_ controller.ChipID, c *flash.Chip) {
		ck.RegisterResource(c.DieName(), trace.KindChip)
		c.AddObserver(ck)
		watch(c.DieName(), c.Busy, c.QueueLen)
	})
	soc.AddObserver(ck)
	ck.RegisterResource("sysbus", trace.KindSoc)
	ck.RegisterResource("dram", trace.KindSoc)
	ck.AddDrainCheck("soc-idle", func() error {
		if !soc.Idle() {
			return fmt.Errorf("SoC resources busy or queued after drain")
		}
		return nil
	})
	ck.RegisterResource(h.NvmeName(), trace.KindHost)
	h.AddObserver(ck)
	ck.AddDrainCheck("nvme-idle", func() error {
		if !h.NvmeIdle() {
			return fmt.Errorf("NVMe link busy or queued after drain")
		}
		return nil
	})
	if f.MapEnabled() {
		ck.WatchMap(f.MapCacheEntries())
		ck.SetMapProbe(f.MapFlashToken)
		f.SetMapChecker(ck)
		ck.AddDrainCheck("map-idle", f.MapIdle)
	}
	f.SetChecker(ck)
	ck.SetContentProbe(func(lpn int64) (flash.Token, bool) {
		id, addr, ok := f.Map(lpn)
		if !ok {
			return 0, false
		}
		chip := grid.Chip(id)
		if chip.PageStateAt(addr) != flash.PageProgrammed {
			return 0, false
		}
		return chip.ContentAt(addr), true
	})
	ck.AddDrainCheck("engine-drained", func() error {
		if n := eng.Pending(); n != 0 {
			return fmt.Errorf("%d events still pending", n)
		}
		return nil
	})
	ck.AddDrainCheck("ftl-drained", func() error {
		switch {
		case f.Outstanding() != 0:
			return fmt.Errorf("%d host ops outstanding", f.Outstanding())
		case f.InflightWriteLPNs() != 0:
			return fmt.Errorf("%d LPNs with writes in flight", f.InflightWriteLPNs())
		case f.StalledWrites() != 0:
			return fmt.Errorf("%d writes stalled on space", f.StalledWrites())
		case f.GCActive():
			return fmt.Errorf("GC round still active")
		}
		return nil
	})
	ck.AddDrainCheck("ftl-consistency", f.CheckConsistency)
	ck.AddDrainCheck("vpage-leaks", func() error {
		var err error
		grid.ForEach(func(id controller.ChipID, c *flash.Chip) {
			if err == nil && c.VPagesHeld() > 0 {
				err = fmt.Errorf("chip %v holds %d V-page registers", id, c.VPagesHeld())
			}
		})
		return err
	})
	// A transfer parked for a V-page register is woken only by the commit
	// or abort that frees one, so a lost wakeup leaves it parked in a
	// drained engine instead of spinning.
	ck.AddDrainCheck("vpage-waiters", func() error {
		var err error
		grid.ForEach(func(id controller.ChipID, c *flash.Chip) {
			if err == nil && c.VPageWaiters() > 0 {
				err = fmt.Errorf("chip %v has %d transfers parked for a V-page register", id, c.VPageWaiters())
			}
		})
		return err
	})
	if inj != nil {
		ck.AddDrainCheck("ras-balance", check.RASBalance(inj))
	}
	return ck
}

// wireTelemetry builds the collector from cfg.Telemetry (nil when
// absent) and attaches it to the host (attribution + windowed series),
// the FTL (GC activity, stall events), and an Omnibus fabric's grant
// arbitration. The collector is purely passive — it never schedules
// events — so an instrumented run executes the same event sequence.
func wireTelemetry(cfg Config, fab controller.Fabric, f *ftl.FTL, h *host.Host) *telemetry.Collector {
	if cfg.Telemetry == nil {
		return nil
	}
	col := telemetry.New(*cfg.Telemetry)
	h.SetTelemetry(col)
	f.SetTelemetry(col)
	if f.MapEnabled() {
		col.EnableMapPhase()
	}
	if ob, ok := fab.(*controller.OmnibusFabric); ok {
		ob.SetTelemetry(col)
	}
	return col
}

// wireFrontend builds the multi-tenant front end from cfg.Frontend (nil
// when absent) and hooks it into tracing (one span track per tenant)
// and the invariant checker (per-queue depth ledger, arbiter fairness
// bound, per-tenant conservation, and a drained-front-end check).
func wireFrontend(cfg Config, h *host.Host, rec *trace.Recorder, ck *check.Checker, col *telemetry.Collector) *host.Frontend {
	if cfg.Frontend == nil {
		return nil
	}
	fe, err := host.NewFrontend(h, *cfg.Frontend)
	if err != nil {
		panic(err) // cfg.Validate already vetted the frontend config
	}
	if rec.Enabled() {
		fe.SetTracer(rec)
	}
	if ck.Enabled() {
		ck.WatchTenants(fe.NumTenants(), fe.StarvationBound())
		fe.SetObserver(ck)
		ck.AddDrainCheck("frontend-drained", func() error {
			if !fe.Drained() {
				return fmt.Errorf("front end has queued or inflight commands after drain (inflight=%d)", fe.Inflight())
			}
			return nil
		})
	}
	if col.Enabled() {
		fe.SetTelemetry(col)
	}
	return fe
}

// wrapSched interposes the scheduling layer between FTL and fabric when
// cfg.Scheduler selects a non-FIFO policy. The FTL issues through the
// returned Fabric; everything else (tracing, checking, telemetry, bus
// accessors) keeps seeing the inner fabric, whose event behavior the
// wrapper only re-sequences. FIFO (the default) returns the fabric
// unwrapped, so the default build is byte-identical to one without the
// scheduling layer compiled in.
func wrapSched(cfg Config, fab controller.Fabric) (controller.Fabric, *controller.SchedFabric) {
	pol, err := controller.ParseSchedPolicy(cfg.Scheduler)
	if err != nil {
		panic(fmt.Sprintf("ssd: %v", err)) // Validate already vetted it
	}
	if pol == controller.SchedFIFO {
		return fab, nil
	}
	s := controller.NewSchedFabric(fab, pol)
	return s, s
}

// wireSchedCheck attaches the scheduling-layer invariants: the
// reservation ledger and reorder-window rules audit every decision, and
// a drain check asserts the scheduler holds nothing at end of run.
func wireSchedCheck(sched *controller.SchedFabric, ck *check.Checker) {
	if sched == nil || !ck.Enabled() {
		return
	}
	ck.WatchSched(sched.Window(), sched.ReorderBound())
	sched.SetChecker(ck)
	ck.AddDrainCheck("sched-quiesced", func() error {
		if !sched.Quiesced() {
			return fmt.Errorf("scheduler still holds work after drain")
		}
		return nil
	})
}

// ftlConfig returns cfg.FTL with the map unit enabled when Mapping
// selects fmmu. Flat (or empty) leaves Map nil, so the FTL is built
// exactly as before the mapping mode existed.
func ftlConfig(cfg Config) ftl.Config {
	fc := cfg.FTL
	if cfg.Mapping == "fmmu" {
		fc.Map = &ftl.MapConfig{Entries: cfg.MapCacheEntries, Eviction: cfg.MapEviction}
	}
	return fc
}

// New builds an SSD of the given architecture. The SoC and NVMe
// bandwidths are provisioned at the architecture's total flash-channel
// bandwidth so they never bottleneck the interconnect under study
// (Sec VII-A).
func New(arch Arch, cfg Config) *SSD {
	cfg.Validate()
	eng := sim.NewEngine()
	grid := controller.NewGrid(eng, cfg.Channels, cfg.Ways, cfg.Geometry, cfg.Timing)

	// Controller-side bandwidth multiplier: packetized architectures double
	// the per-controller pin bandwidth (16 bits vs 8).
	mult := 1
	switch arch {
	case ArchPSSD, ArchPnSSD, ArchPnSSDSplit, ArchNoSSDFree:
		mult = 2
	}
	socMBps := cfg.totalFlashMBps() * mult
	soc := controller.NewSoc(eng, socMBps, socMBps)

	fab := makeFabric(arch, eng, grid, soc, cfg)
	ftlFab, sched := wrapSched(cfg, fab)
	f := ftl.New(eng, ftlFab, ftlConfig(cfg), cfg.LogicalPages())
	h := host.New(eng, f, cfg.Geometry.PageSize, socMBps)
	inj := wireFaults(cfg, grid, fab, f)
	rec := wireTrace(cfg, eng, grid, fab, f, h, soc)
	ck := wireCheck(cfg, eng, grid, fab, f, h, soc, inj)
	wireSchedCheck(sched, ck)
	col := wireTelemetry(cfg, fab, f, h)
	fe := wireFrontend(cfg, h, rec, ck, col)
	return &SSD{Arch: arch, Config: cfg, Engine: eng, Grid: grid, Soc: soc, Fabric: fab, FTL: f, Host: h, Frontend: fe, Faults: inj, Tracer: rec, Checker: ck, Telemetry: col, Sched: sched}
}

// NewCustom builds an SSD whose fabric comes from the supplied
// constructor — the hook the ablation studies use to vary channel widths,
// routing policy, or control-plane latency while keeping the rest of the
// stack identical. The arch parameter only labels the result.
func NewCustom(arch Arch, cfg Config, mk func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, pageSize int) controller.Fabric) *SSD {
	cfg.Validate()
	eng := sim.NewEngine()
	grid := controller.NewGrid(eng, cfg.Channels, cfg.Ways, cfg.Geometry, cfg.Timing)
	socMBps := cfg.totalFlashMBps() * 2
	soc := controller.NewSoc(eng, socMBps, socMBps)
	fab := mk(eng, grid, soc, cfg.Geometry.PageSize)
	ftlFab, sched := wrapSched(cfg, fab)
	f := ftl.New(eng, ftlFab, ftlConfig(cfg), cfg.LogicalPages())
	h := host.New(eng, f, cfg.Geometry.PageSize, socMBps)
	inj := wireFaults(cfg, grid, fab, f)
	rec := wireTrace(cfg, eng, grid, fab, f, h, soc)
	ck := wireCheck(cfg, eng, grid, fab, f, h, soc, inj)
	wireSchedCheck(sched, ck)
	col := wireTelemetry(cfg, fab, f, h)
	fe := wireFrontend(cfg, h, rec, ck, col)
	return &SSD{Arch: arch, Config: cfg, Engine: eng, Grid: grid, Soc: soc, Fabric: fab, FTL: f, Host: h, Frontend: fe, Faults: inj, Tracer: rec, Checker: ck, Telemetry: col, Sched: sched}
}

func makeFabric(arch Arch, eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, cfg Config) controller.Fabric {
	var fab controller.Fabric
	ps := cfg.Geometry.PageSize
	switch arch {
	case ArchBase:
		fab = controller.NewBusFabric(eng, arch.String(), grid, soc, ps, 8, cfg.BusMTps, false)
	case ArchPSSD:
		fab = controller.NewBusFabric(eng, arch.String(), grid, soc, ps, 16, cfg.BusMTps, true)
	case ArchPnSSD:
		fab = controller.NewOmnibusFabric(eng, arch.String(), grid, soc, ps, 8, cfg.BusMTps, false)
	case ArchPnSSDSplit:
		fab = controller.NewOmnibusFabric(eng, arch.String(), grid, soc, ps, 8, cfg.BusMTps, true)
	case ArchNoSSDPin:
		fab = controller.NewMeshFabric(eng, arch.String(), grid, soc, ps, 2, cfg.BusMTps)
	case ArchNoSSDFree:
		fab = controller.NewMeshFabric(eng, arch.String(), grid, soc, ps, 8, cfg.BusMTps)
	default:
		panic(fmt.Sprintf("ssd: unknown architecture %d", int(arch)))
	}
	return fab
}

// AttachChannelUtil attaches per-channel utilization recorders with the
// given window to every h-channel (bus and Omnibus fabrics) and returns
// the matrix — the instrument behind Fig 3. Mesh fabrics have no channel
// notion and return nil.
func (s *SSD) AttachChannelUtil(window sim.Time) *stats.UtilMatrix {
	switch fab := s.Fabric.(type) {
	case *controller.BusFabric:
		m := stats.NewUtilMatrix(s.Config.Channels, window)
		for ch := 0; ch < s.Config.Channels; ch++ {
			fab.Channel(ch).SetUtilRecorder(m.Recorders[ch])
		}
		return m
	case *controller.OmnibusFabric:
		m := stats.NewUtilMatrix(s.Config.Channels, window)
		for ch := 0; ch < s.Config.Channels; ch++ {
			fab.HChannel(ch).SetUtilRecorder(m.Recorders[ch])
		}
		return m
	default:
		return nil
	}
}

// Drain runs the simulation to completion and returns the final time,
// without verifying invariants (Run does both).
func (s *SSD) Drain() sim.Time { return s.Engine.Run() }

// Run drains the event queue and returns the final simulation time. With
// the invariant checker enabled, every drain is verified and a violation
// panics — turning each experiment run into a correctness oracle. Use
// Drain plus VerifyInvariants to inspect violations without panicking.
func (s *SSD) Run() sim.Time {
	t := s.Drain()
	if s.Checker.Enabled() {
		if err := s.Checker.Verify(); err != nil {
			panic(err)
		}
	}
	return t
}

// VerifyInvariants evaluates the checker's drain-time invariants and
// returns the accumulated violations as an error, or nil when clean (or
// when checking is disabled). Idempotent.
func (s *SSD) VerifyInvariants() error { return s.Checker.Verify() }

// Metrics returns the host-side I/O metrics.
func (s *SSD) Metrics() *stats.IOMetrics { return s.Host.Metrics() }
