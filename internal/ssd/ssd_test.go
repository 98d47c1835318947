package ssd

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tinyConfig shrinks the device to run whole-workload tests in
// milliseconds.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Channels = 4
	c.Ways = 4
	c.Geometry.BlocksPerPlane = 8
	c.Geometry.PagesPerBlock = 16
	c.FTL.GCMode = ftl.GCNone
	return c
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	c := DefaultConfig()
	if c.Channels != 8 || c.Ways != 8 {
		t.Fatal("organization is not 8 channels x 8 ways")
	}
	g := c.Geometry
	if g.Planes != 4 || g.BlocksPerPlane != 1024 || g.PagesPerBlock != 512 || g.PageSize != 16384 {
		t.Fatalf("geometry %+v does not match Table II", g)
	}
	if c.BusMTps != 1000 {
		t.Fatal("bus rate is not 1000 MT/s")
	}
	if c.Timing.Read != 3*sim.Microsecond || c.Timing.Program != 50*sim.Microsecond || c.Timing.Erase != sim.Millisecond {
		t.Fatal("flash timing does not match ULL parameters")
	}
	if c.RawPages() != 8*8*4*1024*512 {
		t.Fatalf("RawPages = %d", c.RawPages())
	}
	if c.LogicalPages() >= c.RawPages() {
		t.Fatal("no over-provisioning")
	}
}

func TestArchStringsMatchTableIII(t *testing.T) {
	want := map[Arch]string{
		ArchBase:       "baseSSD",
		ArchNoSSDPin:   "NoSSD(pin-constraint)",
		ArchNoSSDFree:  "NoSSD(no constraint)",
		ArchPSSD:       "pSSD",
		ArchPnSSD:      "pnSSD",
		ArchPnSSDSplit: "pnSSD(+split)",
	}
	if len(Archs) != len(want) {
		t.Fatal("Archs list incomplete")
	}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
		if a.Describe() == "unknown" || a.Describe() == "" {
			t.Fatalf("%s has no description", s)
		}
	}
}

func TestNewBuildsEveryArch(t *testing.T) {
	for _, arch := range Archs {
		s := New(arch, tinyConfig())
		if s.Fabric.Name() != arch.String() {
			t.Fatalf("fabric name %q for arch %v", s.Fabric.Name(), arch)
		}
		// Smoke: warm up a little and do one read and one write.
		s.Host.Warmup(64)
		done := 0
		s.Host.Submit(host.Request{Kind: stats.Read, LPN: 1, Pages: 2}, func() { done++ })
		s.Host.Submit(host.Request{Kind: stats.Write, LPN: 2, Pages: 2}, func() { done++ })
		s.Run()
		if done != 2 {
			t.Fatalf("%v: %d of 2 requests completed", arch, done)
		}
		if s.Metrics().TotalRequests() != 2 {
			t.Fatalf("%v: metrics lost requests", arch)
		}
	}
}

func TestArchitectureLatencyOrderingNoGC(t *testing.T) {
	// Single outstanding random reads on an idle device: the headline
	// per-architecture ordering must hold (Fig 14 rationale):
	// pSSD < pnSSD < base < NoSSD(pin), and NoSSD(free) < base.
	lat := func(arch Arch) sim.Time {
		s := New(arch, tinyConfig())
		s.Host.Warmup(512)
		gen := workload.Synthetic(workload.RandRead, 512, 4, 11)
		s.Host.RunClosedLoop(gen, 1, 50)
		s.Run()
		return s.Metrics().MeanLatency()
	}
	base := lat(ArchBase)
	pssd := lat(ArchPSSD)
	pn := lat(ArchPnSSD)
	pnSplit := lat(ArchPnSSDSplit)
	nosPin := lat(ArchNoSSDPin)
	nosFree := lat(ArchNoSSDFree)

	if !(pssd < base) {
		t.Fatalf("pSSD (%v) not faster than base (%v)", pssd, base)
	}
	if !(pn < base) {
		t.Fatalf("pnSSD (%v) not faster than base (%v)", pn, base)
	}
	if !(pnSplit < pn) {
		t.Fatalf("split (%v) not faster than pnSSD (%v)", pnSplit, pn)
	}
	if !(nosPin > base) {
		t.Fatalf("NoSSD(pin) (%v) not slower than base (%v)", nosPin, base)
	}
	if !(nosFree < nosPin) {
		t.Fatalf("NoSSD(free) (%v) not faster than NoSSD(pin) (%v)", nosFree, nosPin)
	}
}

// TestAttachChannelUtil attaches one windowed utilization recorder to
// each bus channel, the way Fig 3 records its heatmaps, and checks that
// the channels report their busy time to it.
func TestAttachChannelUtil(t *testing.T) {
	s := New(ArchBase, tinyConfig())
	var recs []*sim.UtilRecorder
	for _, b := range s.Buses() {
		u := sim.NewUtilRecorder(100 * sim.Microsecond)
		b.Channel.AddObserver(u)
		recs = append(recs, u)
	}
	if len(recs) != 4 {
		t.Fatalf("%d bus channels on a 4-channel bus fabric", len(recs))
	}
	s.Host.Warmup(128)
	s.Host.RunClosedLoop(workload.Synthetic(workload.RandRead, 128, 2, 3), 4, 40)
	s.Run()
	for i, u := range recs {
		var busy float64
		for _, v := range u.Values(u.Len(), 1) {
			busy += v
		}
		if c := s.Buses()[i].Channel; sim.Time(busy) != c.TotalBusy() || busy == 0 {
			t.Fatalf("%s: recorder holds %v ps busy, channel reports %v", c.Name(), busy, c.TotalBusy())
		}
	}

	pn := New(ArchPnSSD, tinyConfig())
	if n := len(pn.Buses()); n != 4+pn.Fabric.(*controller.OmnibusFabric).NumVChannels() {
		t.Fatalf("omnibus fabric enumerates %d bus channels", n)
	}
	if b := New(ArchNoSSDPin, tinyConfig()).Buses(); b != nil {
		t.Fatalf("mesh fabric enumerates bus channels %v", b)
	}
}

func TestScaledConfigPreservesShape(t *testing.T) {
	full := DefaultConfig()
	scaled := ScaledConfig()
	if scaled.Channels != full.Channels || scaled.Ways != full.Ways {
		t.Fatal("scaling changed the interconnect shape")
	}
	if scaled.Geometry.Planes != full.Geometry.Planes || scaled.Geometry.PageSize != full.Geometry.PageSize {
		t.Fatal("scaling changed plane count or page size")
	}
	if scaled.RawPages() >= full.RawPages() {
		t.Fatal("scaling did not shrink capacity")
	}
}

func TestEndToEndTraceReplayWithGC(t *testing.T) {
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCParallel
	cfg.FTL.GCThreshold = 0.3
	s := New(ArchBase, cfg)
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("rocksdb-1", foot, 400, 17)
	if err != nil {
		t.Fatal(err)
	}
	completed := s.Host.MustReplay(tr.Requests)
	s.Run()
	if *completed != 400 {
		t.Fatalf("completed %d of 400", *completed)
	}
	if err := s.FTL.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if s.FTL.Stats().GCRounds == 0 {
		t.Fatal("write-heavy trace never triggered GC")
	}
}
