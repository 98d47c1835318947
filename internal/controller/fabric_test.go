package controller

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/mesh"
	"repro/internal/sim"
)

func testGeo() flash.Geometry {
	return flash.Geometry{Planes: 4, BlocksPerPlane: 8, PagesPerBlock: 16, PageSize: 16384}
}

func testRig(channels, ways int) (*sim.Engine, *Grid, *Soc) {
	e := sim.NewEngine()
	g := NewGrid(e, channels, ways, testGeo(), flash.ULLTiming())
	soc := NewSoc(e, 8000, 8000)
	return e, g, soc
}

func TestGridBasics(t *testing.T) {
	e, g, _ := testRig(4, 2)
	_ = e
	if g.NumChips() != 8 {
		t.Fatalf("NumChips = %d", g.NumChips())
	}
	if g.Chip(ChipID{3, 1}).Name() != "ch3/w1" {
		t.Fatalf("chip name = %q", g.Chip(ChipID{3, 1}).Name())
	}
	var visited int
	g.ForEach(func(id ChipID, c *flash.Chip) {
		visited++
		if g.Chip(id) != c {
			t.Fatal("ForEach id mismatch")
		}
	})
	if visited != 8 {
		t.Fatalf("visited %d chips", visited)
	}
}

func TestGridOutOfRangePanics(t *testing.T) {
	_, g, _ := testRig(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range chip did not panic")
		}
	}()
	g.Chip(ChipID{2, 0})
}

func TestSocTransferTiming(t *testing.T) {
	e := sim.NewEngine()
	soc := NewSoc(e, 8000, 8000) // 8 GB/s: 16 KB in 2us per stage
	var doneAt sim.Time
	soc.Transfer(16384, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 4096*sim.Nanosecond {
		// 16384 bytes * 125ps = 2.048us per stage, two stages.
		t.Fatalf("SoC transfer took %v, want 4.096us", doneAt)
	}
	if soc.SysBusBusy() == 0 || soc.DramBusy() == 0 {
		t.Fatal("SoC busy accounting missing")
	}
}

func TestSocPipelineOverlap(t *testing.T) {
	e := sim.NewEngine()
	soc := NewSoc(e, 8000, 8000)
	remaining := 2
	soc.Transfer(16384, func() { remaining-- })
	soc.Transfer(16384, func() { remaining-- })
	e.Run()
	if remaining != 0 {
		t.Fatal("transfers incomplete")
	}
	// Two pipelined 2.048us+2.048us transfers: second overlaps in DRAM
	// while first vacates, so total < 2 * 4.096us.
	if e.Now() >= 8192*sim.Nanosecond {
		t.Fatalf("pipeline did not overlap: %v", e.Now())
	}
}

// readLatency runs one single-plane read on an idle fabric and returns the
// end-to-end latency.
func readLatency(t *testing.T, e *sim.Engine, f Fabric, id ChipID) sim.Time {
	t.Helper()
	chip := f.Grid().Chip(id)
	a := flash.PPA{Plane: 0, Block: 0, Page: 0}
	if chip.PageStateAt(a) == flash.PageErased {
		chip.Program([]flash.ProgramOp{{Addr: a, Token: 42}}, nil)
		e.Run()
	}
	start := e.Now()
	var doneAt sim.Time
	f.Read(id, []flash.PPA{a}, func() { doneAt = e.Now() })
	e.Run()
	if doneAt <= start {
		t.Fatal("read never completed")
	}
	return doneAt - start
}

func TestBusFabricReadWriteErase(t *testing.T) {
	e, g, soc := testRig(2, 2)
	f := NewBusFabric(e, "base", g, soc, 16384, 8, 1000, false)
	id := ChipID{0, 1}
	a := flash.PPA{Plane: 1, Block: 2, Page: 0}

	var wDone, rDone, eDone bool
	f.Write(id, []flash.ProgramOp{{Addr: a, Token: 0xAB}}, func() { wDone = true })
	e.Run()
	if !wDone || g.Chip(id).ContentAt(a) != 0xAB {
		t.Fatal("write failed")
	}
	f.Read(id, []flash.PPA{a}, func() { rDone = true })
	e.Run()
	if !rDone {
		t.Fatal("read never completed")
	}
	f.Erase(id, []flash.PPA{{Plane: 1, Block: 2}}, func() { eDone = true })
	e.Run()
	if !eDone || g.Chip(id).PageStateAt(a) != flash.PageErased {
		t.Fatal("erase failed")
	}
}

func TestBusFabricReadLatencyBreakdown(t *testing.T) {
	e, g, soc := testRig(1, 1)
	f := NewBusFabric(e, "base", g, soc, 16384, 8, 1000, false)
	lat := readLatency(t, e, f, ChipID{0, 0})
	// cmd 120ns + tR 3us + xfer 16.434us + ECC 0.5us + SoC 4.096us ≈ 24.15us
	want := 120*sim.Nanosecond + 3*sim.Microsecond + 16434*sim.Nanosecond +
		500*sim.Nanosecond + 4096*sim.Nanosecond
	if lat != want {
		t.Fatalf("base read latency = %v, want %v", lat, want)
	}
}

func TestPSSDReadFasterThanBase(t *testing.T) {
	eBase, gBase, socBase := testRig(1, 1)
	base := NewBusFabric(eBase, "base", gBase, socBase, 16384, 8, 1000, false)
	ePssd, gPssd, socPssd := testRig(1, 1)
	pssd := NewBusFabric(ePssd, "pssd", gPssd, socPssd, 16384, 16, 1000, true)

	latBase := readLatency(t, eBase, base, ChipID{0, 0})
	latPssd := readLatency(t, ePssd, pssd, ChipID{0, 0})
	if latPssd >= latBase {
		t.Fatalf("pSSD read %v not faster than base %v", latPssd, latBase)
	}
	// The channel transfer halves (16.4us -> 8.2us); the rest is shared.
	saved := latBase - latPssd
	if saved < 7*sim.Microsecond || saved > 9*sim.Microsecond {
		t.Fatalf("pSSD saved %v, want ~8.2us", saved)
	}
}

func TestBusFabricChannelContention(t *testing.T) {
	// Two chips on one channel vs two chips on two channels: the shared
	// channel must serialize the page transfers.
	run := func(channels, ways int, ids []ChipID) sim.Time {
		e, g, soc := testRig(channels, ways)
		f := NewBusFabric(e, "base", g, soc, 16384, 8, 1000, false)
		for _, id := range ids {
			g.Chip(id).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
		}
		e.Run()
		start := e.Now()
		remaining := len(ids)
		for _, id := range ids {
			f.Read(id, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { remaining-- })
		}
		e.Run()
		if remaining != 0 {
			t.Fatal("reads incomplete")
		}
		return e.Now() - start
	}
	shared := run(1, 2, []ChipID{{0, 0}, {0, 1}})
	parallel := run(2, 1, []ChipID{{0, 0}, {1, 0}})
	if shared <= parallel {
		t.Fatalf("shared-channel reads (%v) not slower than parallel channels (%v)", shared, parallel)
	}
	if float64(shared) < 1.5*float64(parallel) {
		t.Fatalf("expected strong serialization: shared=%v parallel=%v", shared, parallel)
	}
}

func TestBusFabricCopyMovesContent(t *testing.T) {
	e, g, soc := testRig(2, 2)
	f := NewBusFabric(e, "base", g, soc, 16384, 8, 1000, false)
	src, dst := ChipID{0, 0}, ChipID{1, 1}
	from, to := flash.PPA{Plane: 0, Block: 0, Page: 0}, flash.PPA{Plane: 2, Block: 3, Page: 0}
	g.Chip(src).Program([]flash.ProgramOp{{Addr: from, Token: 0x77}}, nil)
	e.Run()
	done := false
	f.Copy(src, from, dst, to, func() { done = true })
	e.Run()
	if !done || g.Chip(dst).ContentAt(to) != 0x77 {
		t.Fatal("copy failed")
	}
}

func TestDedicatedRequires8Bits(t *testing.T) {
	e, g, soc := testRig(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("16-bit dedicated fabric did not panic")
		}
	}()
	NewBusFabric(e, "bad", g, soc, 16384, 16, 1000, false)
}

// TestFabricLookahead pins each fabric's minimum cross-group latency:
// the ECC pipeline on the bus fabrics, the smaller of ECC and the
// control-plane message on Omnibus (zero once an ablation zeroes the
// message latency), and the smaller of ECC and a router hop on the mesh.
func TestFabricLookahead(t *testing.T) {
	e, g, soc := testRig(2, 2)
	if got := NewBusFabric(e, "base", g, soc, 16384, 8, 1000, false).Lookahead(); got != EccLatency {
		t.Fatalf("bus lookahead %v, want EccLatency %v", got, EccLatency)
	}
	omni := newOmnibus(e, g, soc, false)
	if got, want := omni.Lookahead(), min(EccLatency, DefaultCtrlMsgLatency); got != want {
		t.Fatalf("omnibus lookahead %v, want %v", got, want)
	}
	soc.SetCtrlMsgLatency(0)
	if got := omni.Lookahead(); got != 0 {
		t.Fatalf("omnibus lookahead %v after zeroing the control-plane latency, want 0", got)
	}
	if got, want := NewMeshFabric(e, "nossd", g, soc, 16384, 8, 1000).Lookahead(), min(EccLatency, mesh.DefaultHopLatency); got != want {
		t.Fatalf("mesh lookahead %v, want %v", got, want)
	}
}
