package flash

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testGeo() Geometry {
	return Geometry{Planes: 4, BlocksPerPlane: 8, PagesPerBlock: 16, PageSize: 16384}
}

func newTestChip(e *sim.Engine) *Chip {
	return NewChip(e, "chip0", testGeo(), ULLTiming())
}

func TestGeometryArithmetic(t *testing.T) {
	g := Geometry{Planes: 4, BlocksPerPlane: 1024, PagesPerBlock: 512, PageSize: 16384}
	if g.PagesPerChip() != 4*1024*512 {
		t.Fatalf("PagesPerChip = %d", g.PagesPerChip())
	}
	if g.CapacityBytes() != int64(4*1024*512)*16384 {
		t.Fatalf("CapacityBytes = %d", g.CapacityBytes())
	}
}

func TestULLTiming(t *testing.T) {
	tm := ULLTiming()
	if tm.Read != 3*sim.Microsecond || tm.Program != 50*sim.Microsecond || tm.Erase != sim.Millisecond {
		t.Fatalf("ULL timing = %+v", tm)
	}
}

func TestRowPackUnpack(t *testing.T) {
	g := Geometry{Planes: 4, BlocksPerPlane: 1024, PagesPerBlock: 512, PageSize: 16384}
	cases := []PPA{
		{0, 0, 0},
		{3, 1023, 511},
		{1, 512, 255},
	}
	for _, a := range cases {
		row := g.PackRow(a)
		if row>>24 != 0 {
			t.Fatalf("row %x exceeds 24 bits for %v", row, a)
		}
		back := g.UnpackRow(row)
		if back != a {
			t.Fatalf("round trip %v -> %x -> %v", a, row, back)
		}
	}
}

func TestRowPackUnpackProperty(t *testing.T) {
	g := Geometry{Planes: 4, BlocksPerPlane: 1024, PagesPerBlock: 512, PageSize: 16384}
	prop := func(p, b, pg uint16) bool {
		a := PPA{Plane: int(p) % g.Planes, Block: int(b) % g.BlocksPerPlane, Page: int(pg) % g.PagesPerBlock}
		return g.UnpackRow(g.PackRow(a)) == a
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	a := PPA{Plane: 2, Block: 3, Page: 0}
	done := false
	c.Program([]ProgramOp{{Addr: a, Token: 0xDEADBEEF}}, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("program completion never fired")
	}
	if e.Now() != 50*sim.Microsecond {
		t.Fatalf("program took %v, want 50us", e.Now())
	}
	if c.PageStateAt(a) != PageProgrammed || c.ContentAt(a) != 0xDEADBEEF {
		t.Fatal("page not programmed with token")
	}
	start := e.Now()
	c.Read([]PPA{a}, nil)
	e.Run()
	if e.Now()-start != 3*sim.Microsecond {
		t.Fatalf("read took %v, want 3us", e.Now()-start)
	}
	if c.PageRegister(2) != 0xDEADBEEF {
		t.Fatalf("page register = %x", c.PageRegister(2))
	}
	r, p, er := c.Counters()
	if r != 1 || p != 1 || er != 0 {
		t.Fatalf("counters = %d,%d,%d", r, p, er)
	}
}

func TestMultiPlaneOps(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	var ops []ProgramOp
	for pl := 0; pl < 4; pl++ {
		ops = append(ops, ProgramOp{Addr: PPA{Plane: pl, Block: 1, Page: 0}, Token: Token(100 + pl)})
	}
	c.Program(ops, nil)
	e.Run()
	// One multi-plane program = one tPROG, not four.
	if e.Now() != 50*sim.Microsecond {
		t.Fatalf("multi-plane program took %v, want 50us", e.Now())
	}
	start := e.Now()
	ppas := []PPA{{0, 1, 0}, {1, 1, 0}, {2, 1, 0}, {3, 1, 0}}
	c.Read(ppas, nil)
	e.Run()
	if e.Now()-start != 3*sim.Microsecond {
		t.Fatalf("multi-plane read took %v, want 3us", e.Now()-start)
	}
	for pl := 0; pl < 4; pl++ {
		if c.PageRegister(pl) != Token(100+pl) {
			t.Fatalf("plane %d register = %v", pl, c.PageRegister(pl))
		}
	}
}

func TestDieSerializesOps(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 1}}, nil)
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 1}, Token: 2}}, nil)
	e.Run()
	if e.Now() != 100*sim.Microsecond {
		t.Fatalf("two programs took %v, want 100us (serialized)", e.Now())
	}
}

func TestEraseResetsBlock(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	for pg := 0; pg < 3; pg++ {
		c.Program([]ProgramOp{{Addr: PPA{1, 2, pg}, Token: Token(pg + 1)}}, nil)
	}
	e.Run()
	c.Erase([]PPA{{Plane: 1, Block: 2}}, nil)
	start := e.Now()
	e.Run()
	if e.Now()-start != sim.Millisecond {
		t.Fatalf("erase took %v, want 1ms", e.Now()-start)
	}
	for pg := 0; pg < 3; pg++ {
		a := PPA{1, 2, pg}
		if c.PageStateAt(a) != PageErased || c.ContentAt(a) != ErasedToken {
			t.Fatalf("page %v not erased", a)
		}
	}
	if c.EraseCount(1, 2) != 1 {
		t.Fatalf("erase count = %d", c.EraseCount(1, 2))
	}
	// Block is reprogrammable from page 0 after erase.
	c.Program([]ProgramOp{{Addr: PPA{1, 2, 0}, Token: 9}}, nil)
	e.Run()
	if c.ContentAt(PPA{1, 2, 0}) != 9 {
		t.Fatal("reprogram after erase failed")
	}
}

func TestProgramNonErasedPanics(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 1}}, nil)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double program did not panic")
		}
	}()
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 2}}, nil)
}

func TestInstallPage(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	a := PPA{Plane: 0, Block: 0, Page: 0}
	c.InstallPage(a, 0x11)
	if e.Now() != 0 {
		t.Fatal("install consumed simulated time")
	}
	if c.PageStateAt(a) != PageProgrammed || c.ContentAt(a) != 0x11 {
		t.Fatal("install did not program the page")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double install did not panic")
		}
	}()
	c.InstallPage(a, 0x22)
}

func TestReadUnprogrammedPanics(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	defer func() {
		if recover() == nil {
			t.Fatal("read of erased page did not panic")
		}
	}()
	c.Read([]PPA{{0, 0, 0}}, nil)
}

func TestMultiPlaneDuplicatePlanePanics(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate plane did not panic")
		}
	}()
	c.Program([]ProgramOp{
		{Addr: PPA{1, 0, 0}, Token: 1},
		{Addr: PPA{1, 1, 0}, Token: 2},
	}, nil)
}

func TestVPageLifecycle(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	if !c.VPageFree() {
		t.Fatal("fresh chip has no free V-page registers")
	}
	r0 := c.AcquireVPage()
	r1 := c.AcquireVPage()
	if r0 != 0 || r1 != 1 {
		t.Fatalf("acquired %d, %d", r0, r1)
	}
	if c.VPageFree() || c.AcquireVPage() != -1 {
		t.Fatal("exhausted V-page registers still acquirable")
	}
	c.SetVPage(r0, 0xCAFE)
	if c.VPage(r0) != 0xCAFE {
		t.Fatal("V-page content lost")
	}
	// Commit r0 into the array: register frees on completion.
	c.ProgramFromVPage(r0, PPA{0, 4, 0}, nil)
	e.Run()
	if c.ContentAt(PPA{0, 4, 0}) != 0xCAFE {
		t.Fatal("VCommit did not program token")
	}
	if !c.VPageFree() {
		t.Fatal("V-page register not freed after commit")
	}
	c.ReleaseVPage(r1)
	if c.AcquireVPage() == -1 {
		t.Fatal("released register not reusable")
	}
}

// Transfers that find both V-page registers held park in arrival order;
// each commit or abort hands its register straight to the head waiter,
// and a new arrival never overtakes a parked one.
func TestVPageWaitersServedInArrivalOrder(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	var granted []int // waiter ids, in grant order
	var regs []int
	park := func(id int) {
		c.WaitVPage(func(reg int) { granted = append(granted, id); regs = append(regs, reg) })
	}
	park(0) // takes register 0 at once
	park(1) // takes register 1 at once
	park(2)
	park(3)
	if len(granted) != 2 || c.VPageWaiters() != 2 {
		t.Fatalf("granted %v with %d parked, want two grants and two parked", granted, c.VPageWaiters())
	}
	c.ReleaseVPage(regs[1]) // abort: register 1 goes to waiter 2
	if len(granted) != 3 || granted[2] != 2 || regs[2] != regs[1] {
		t.Fatalf("abort did not hand register %d to waiter 2: granted %v regs %v", regs[1], granted, regs)
	}
	if c.VPagesHeld() != 2 {
		t.Fatalf("%d registers held after a hand-off, want 2", c.VPagesHeld())
	}
	c.SetVPage(regs[0], 0xBEEF)
	c.ProgramFromVPage(regs[0], PPA{0, 5, 0}, nil) // commit: register 0 goes to waiter 3
	park(4)                                        // arrives behind waiter 3
	e.Run()
	if len(granted) != 4 || granted[3] != 3 || c.VPageWaiters() != 1 {
		t.Fatalf("commit did not hand its register to waiter 3: granted %v, %d parked", granted, c.VPageWaiters())
	}
	c.ReleaseVPage(regs[2])
	c.ReleaseVPage(regs[3])
	if len(granted) != 5 || granted[4] != 4 || c.VPageWaiters() != 0 || c.VPagesHeld() != 1 {
		t.Fatalf("granted %v, %d parked, %d held; want waiter 4 served and one register free", granted, c.VPageWaiters(), c.VPagesHeld())
	}
}

func TestVPageMisusePanics(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	for _, fn := range []func(){
		func() { c.SetVPage(0, 1) },                         // unclaimed store
		func() { c.ReleaseVPage(0) },                        // unclaimed release
		func() { c.ProgramFromVPage(1, PPA{0, 0, 0}, nil) }, // empty commit
		func() { c.VPage(9) },                               // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("V-page misuse did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestChipBusyDuringOp(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 1}}, nil)
	e.RunUntil(10 * sim.Microsecond)
	if !c.Busy() {
		t.Fatal("chip idle mid-program")
	}
	e.Run()
	if c.Busy() {
		t.Fatal("chip busy after program completed")
	}
}

// Property: programming pages in order with arbitrary tokens, every token
// reads back; erase clears everything.
func TestProgramEraseProperty(t *testing.T) {
	prop := func(tokens []uint64) bool {
		if len(tokens) > 16 {
			tokens = tokens[:16]
		}
		e := sim.NewEngine()
		c := newTestChip(e)
		for i, tok := range tokens {
			c.Program([]ProgramOp{{Addr: PPA{0, 0, i}, Token: Token(tok)}}, nil)
		}
		e.Run()
		for i, tok := range tokens {
			if c.ContentAt(PPA{0, 0, i}) != Token(tok) {
				return false
			}
		}
		c.Erase([]PPA{{Plane: 0, Block: 0}}, nil)
		e.Run()
		for i := range tokens {
			if c.PageStateAt(PPA{0, 0, i}) != PageErased {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
