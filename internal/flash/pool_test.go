package flash

import (
	"testing"

	"repro/internal/sim"
)

// Erase works on its own copy of the addresses: the caller's slice keeps
// the page numbers it was given.
func TestEraseLeavesCallerSliceUnchanged(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	c.InstallPage(PPA{1, 2, 0}, 0xAA)
	c.InstallPage(PPA{1, 2, 1}, 0xBB)
	blocks := []PPA{{Plane: 1, Block: 2, Page: 5}, {Plane: 3, Block: 0, Page: 7}}
	c.Erase(blocks, nil)
	e.Run()
	if blocks[0].Page != 5 || blocks[1].Page != 7 {
		t.Fatalf("Erase rewrote the caller's addresses: %v", blocks)
	}
	if c.PageStateAt(PPA{1, 2, 1}) != PageErased || c.EraseCount(1, 2) != 1 || c.EraseCount(3, 0) != 1 {
		t.Fatal("erase did not reach both addressed blocks")
	}
}

// A chip keeps at most dieOpPoolCap idle operation records, however deep
// its die queue ran: 10k programs queued at once leave no more than the
// cap behind once they drain.
func TestDieOpPoolBounded(t *testing.T) {
	e := sim.NewEngine()
	geo := Geometry{Planes: 1, BlocksPerPlane: 80, PagesPerBlock: 128, PageSize: 16384}
	c := NewChip(e, "chip0", geo, ULLTiming())
	const n = 10_000
	completed := 0
	done := func() { completed++ }
	for i := 0; i < n; i++ {
		a := PPA{Plane: 0, Block: i / geo.PagesPerBlock, Page: i % geo.PagesPerBlock}
		c.Program([]ProgramOp{{Addr: a, Token: Token(i + 1)}}, done)
	}
	if c.QueueLen() != n-1 {
		t.Fatalf("die queue holds %d programs, want %d", c.QueueLen(), n-1)
	}
	e.Run()
	if completed != n {
		t.Fatalf("%d of %d programs completed", completed, n)
	}
	if got := c.ops.Len(); got == 0 || got > dieOpPoolCap {
		t.Fatalf("free list keeps %d records after the drain, want 1..%d", got, dieOpPoolCap)
	}
	if got := c.ContentAt(PPA{0, (n - 1) / 128, (n - 1) % 128}); got != Token(n) {
		t.Fatalf("last program stored %#x, want %#x", got, n)
	}
}

// A done that starts the next operation on the same chip gets the record
// the finished one just gave back, and still sees its own addresses,
// tokens and page state: program, then read back, then commit a V-page
// copy and erase, each from inside the previous one's callback.
func TestDieOpReuseFromDone(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	src, dst := PPA{2, 3, 0}, PPA{2, 4, 0}
	var steps []string
	c.Program([]ProgramOp{{Addr: src, Token: 0xF00D}}, func() {
		steps = append(steps, "program")
		if c.ops.Len() != 1 {
			t.Errorf("finished record not recycled before done: %d idle", c.ops.Len())
		}
		c.Read([]PPA{src}, func() {
			steps = append(steps, "read")
			if got := c.PageRegister(src.Plane); got != 0xF00D {
				t.Errorf("page register holds %#x after reading back, want 0xF00D", got)
			}
			reg := c.AcquireVPage()
			c.SetVPage(reg, c.PageRegister(src.Plane))
			c.ProgramFromVPage(reg, dst, func() {
				steps = append(steps, "commit")
				if c.VPagesHeld() != 0 {
					t.Error("V-page register still held when the commit's done runs")
				}
				c.Erase([]PPA{src}, func() { steps = append(steps, "erase") })
			})
		})
	})
	e.Run()
	if len(steps) != 4 {
		t.Fatalf("chain stopped after %v", steps)
	}
	if c.ContentAt(dst) != 0xF00D || c.PageStateAt(src) != PageErased {
		t.Fatalf("dst holds %#x, src state %d", c.ContentAt(dst), c.PageStateAt(src))
	}
	if c.ops.Len() != 1 {
		t.Fatalf("a strictly sequential chain built %d records, want 1", c.ops.Len())
	}
}
